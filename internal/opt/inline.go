package opt

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/sema"
)

// BodySnapshot records every function's body as it stood between the
// local-rewrite phase and the inline phase, so that parallel per-function
// inlining never reads a body another worker is rewriting. It copies no
// tree: after environment analysis no pass writes an AST node, so a body
// pointer taken here stays valid however the function is rewritten later
// (DESIGN decision 23).
type BodySnapshot struct {
	bodies map[string]*ast.FuncDecl
	sizes  map[string]int
}

// Snapshot captures the current bodies and node counts of every function.
// Each entry is a shallow copy of the declaration: the optimizer replaces a
// function's Body field, never the nodes it points to.
func Snapshot(info *sema.Info) *BodySnapshot {
	s := &BodySnapshot{
		bodies: make(map[string]*ast.FuncDecl, len(info.Funcs)),
		sizes:  make(map[string]int, len(info.Funcs)),
	}
	for name, f := range info.Funcs {
		d := *f.Decl
		s.bodies[name] = &d
		s.sizes[name] = ast.Count(d.Body)
	}
	return s
}

// InlineFunc expands calls to small, non-recursive functions inside f's
// body, reading callee bodies from the snapshot. An expanded call becomes a
// let binding the parameters to the argument expressions around a
// fresh-renamed copy of the callee body; capture names stay free and
// resolve at the inline site exactly as they would through the closure
// environment (alpha-renaming makes them unique program-wide).
func InlineFunc(info *sema.Info, f *ast.FuncDecl, snap *BodySnapshot, opts Options, st *Stats) {
	if opts.Level < 2 {
		return
	}
	inl := &inliner{info: info, snap: snap, budget: opts.inlineBudget(), host: f.Name, st: st}
	f.Body = inl.rewrite(f.Body, true)
}

type inliner struct {
	info   *sema.Info
	snap   *BodySnapshot
	budget int
	host   string
	st     *Stats
	nextID int
}

// rewrite walks the body. tail tracks whether the current position is a
// tail position: tail calls are not inlined, preserving the runtime's O(1)
// activation reuse for loops (an inlined self-tail-call would unroll once
// and then still recurse). It is copy-on-change: an unchanged subtree is
// returned as is.
func (in *inliner) rewrite(e ast.Expr, tail bool) ast.Expr {
	inner := func(e ast.Expr) ast.Expr { return in.rewrite(e, false) }
	switch x := e.(type) {
	case *ast.Call:
		if args, changed := ast.Map(x.Args, inner); changed {
			x = &ast.Call{P: x.P, Fun: x.Fun, Args: args, Tail: x.Tail}
		}
		if !tail {
			if r, ok := in.tryInline(x); ok {
				return r
			}
		}
		return x
	case *ast.TupleExpr:
		if elems, changed := ast.Map(x.Elems, inner); changed {
			return &ast.TupleExpr{P: x.P, Elems: elems}
		}
		return x
	case *ast.Let:
		binds, changed := ast.Map(x.Binds, func(b *ast.Bind) *ast.Bind {
			if b.Kind == ast.BindFunc {
				return b
			}
			return b.WithInit(in.rewrite(b.Init, false))
		})
		if body := in.rewrite(x.Body, tail); changed || body != x.Body {
			return &ast.Let{P: x.P, Binds: binds, Body: body}
		}
		return x
	case *ast.If:
		cond, then, els := in.rewrite(x.Cond, false), in.rewrite(x.Then, tail), in.rewrite(x.Else, tail)
		if cond != x.Cond || then != x.Then || els != x.Else {
			return &ast.If{P: x.P, Cond: cond, Then: then, Else: els}
		}
		return x
	case *ast.Iterate:
		vars, changed := ast.Map(x.Vars, func(iv *ast.IterVar) *ast.IterVar {
			return iv.With(in.rewrite(iv.Init, false), in.rewrite(iv.Next, false))
		})
		cond, result := in.rewrite(x.Cond, false), in.rewrite(x.Result, false)
		if changed || cond != x.Cond || result != x.Result {
			return &ast.Iterate{P: x.P, Vars: vars, Cond: cond, Result: result}
		}
		return x
	default:
		return e
	}
}

// tryInline expands a direct call to a small non-recursive function.
func (in *inliner) tryInline(call *ast.Call) (ast.Expr, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Ref != ast.RefFunc {
		return nil, false
	}
	callee, ok := in.snap.bodies[id.Name]
	if !ok || callee.Recursive || id.Name == in.host {
		return nil, false
	}
	if in.snap.sizes[id.Name] > in.budget {
		return nil, false
	}
	if len(call.Args) != len(callee.Params) {
		return nil, false // arity error already reported by sema
	}
	if containsBindFunc(callee.Body) {
		// A nested definition's lifted declaration captures the callee's
		// binder names; renaming them at the inline site would strand the
		// capture lookups. Such callees stay out of line.
		return nil, false
	}
	body := in.freshen(callee)
	atomic.AddInt64(&in.st.Inlined, 1)
	if len(callee.Params) == 0 {
		return body, true
	}
	let := &ast.Let{P: call.P, Body: body}
	for i, p := range callee.Params {
		let.Binds = append(let.Binds, &ast.Bind{P: call.P, Kind: ast.BindValue,
			Names: []string{p + in.suffix()}, Init: call.Args[i]})
	}
	return let, true
}

// suffix returns the rename suffix of the most recent freshen call.
func (in *inliner) suffix() string {
	return fmt.Sprintf("@%s%d", in.host, in.nextID)
}

// freshen clones the callee body and renames every binder defined inside it
// (parameters included, via the rename map applied to identifier uses) so
// repeated inlining of the same function cannot collide. Free names —
// including the callee's captures — are left untouched.
func (in *inliner) freshen(callee *ast.FuncDecl) ast.Expr {
	in.nextID++
	suffix := in.suffix()
	rename := make(map[string]string, len(callee.Params))
	for _, p := range callee.Params {
		rename[p] = p + suffix
	}
	body := ast.Clone(callee.Body)
	collectBinders(body, suffix, rename)
	return ast.Rewrite(body, func(e ast.Expr) ast.Expr {
		if ident, ok := e.(*ast.Ident); ok {
			if nn, ok := rename[ident.Name]; ok {
				return &ast.Ident{P: ident.P, Name: nn, Ref: ident.Ref}
			}
		}
		return e
	})
}

// containsBindFunc reports whether any let in the tree defines a nested
// function.
func containsBindFunc(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if let, ok := x.(*ast.Let); ok {
			for _, b := range let.Binds {
				if b.Kind == ast.BindFunc {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// collectBinders renames binder occurrences in place and records the
// mapping for identifier rewriting.
func collectBinders(e ast.Expr, suffix string, rename map[string]string) {
	ast.Walk(e, func(x ast.Expr) bool {
		switch n := x.(type) {
		case *ast.Let:
			for _, b := range n.Binds {
				if b.Kind == ast.BindFunc {
					// A nested function definition inside an inline
					// candidate would need a second lift; the budget keeps
					// candidates small enough that sema-lifted binds are
					// rare, and the bind is a no-op in the graph. Leave it.
					continue
				}
				for i, name := range b.Names {
					nn := name + suffix
					rename[name] = nn
					b.Names[i] = nn
				}
			}
		case *ast.Iterate:
			for _, iv := range n.Vars {
				nn := iv.Name + suffix
				rename[iv.Name] = nn
				iv.Name = nn
			}
		}
		return true
	})
}
