package opt

import "repro/internal/ast"

// Bodies exposes the snapshot's declarations to the external tests.
func (s *BodySnapshot) Bodies() map[string]*ast.FuncDecl { return s.bodies }
