// Package opt implements the optimization pass of Table 1: constant
// propagation and folding, common sub-expression elimination, dead-code
// elimination, and inline function expansion (§6.1). Unnecessary nodes in
// the coordination graph translate into extra overhead at run time, so the
// compiler works the analyzed tree to a fixed point before graph
// conversion.
//
// The pass runs on the alpha-renamed, resolved AST produced by environment
// analysis, which makes every transformation a local rewrite:
//
//   - structural equality of pure expressions implies semantic equality
//     (single assignment plus unique names), so CSE keys a pure call by a
//     structural key that matches exactly when the printed forms would;
//   - binder uniqueness lets inlined bodies keep their free names, so a
//     lifted function's captures resolve correctly at any inline site.
//
// That AST is persistent (DESIGN decision 23): every walk here is
// copy-on-change, returning an unchanged subtree as the node it was given,
// and no pass writes a node it did not just allocate. The one field
// written in place is a function's Body, which the drivers replace with
// each walk's result.
//
// In the parallel compiler (internal/selfcomp) the local transformations
// are a synthesized-attribute walk (§6.2 strategy 3) run independently per
// top-level unit — a function and the functions lifted out of it; inlining
// reads a snapshot of callee bodies taken between two local phases, so
// parallel workers never observe each other's rewrites. Because bodies are
// never written, the snapshot shares them rather than copying.
package opt

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/operator"
	"repro/internal/sema"
	"repro/internal/value"
)

// Options controls the optimizer.
type Options struct {
	// Level 0 disables everything; level 1 enables folding, propagation,
	// CSE, and DCE; level 2 adds inlining. The default compiler pipeline
	// uses level 2.
	Level int
	// InlineBudget is the maximum node count of a callee body considered
	// for inline expansion. Zero selects the default of 24.
	InlineBudget int
	// MaxRounds bounds the local-rewrite fixpoint per function. Zero
	// selects the default of 8.
	MaxRounds int
}

func (o Options) inlineBudget() int {
	if o.InlineBudget <= 0 {
		return 24
	}
	return o.InlineBudget
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 8
	}
	return o.MaxRounds
}

// Stats counts applied transformations; fields are updated atomically so
// parallel per-function optimization can share one Stats.
type Stats struct {
	Folded     int64 // constant-folded operator calls and conditionals
	Propagated int64 // literal let bindings propagated to uses
	CSE        int64 // duplicate pure expressions eliminated
	DeadBinds  int64 // unused let bindings removed
	Inlined    int64 // call sites expanded inline
}

// String renders the counters in a fixed order.
func (s *Stats) String() string {
	return fmt.Sprintf("folded=%d propagated=%d cse=%d dead=%d inlined=%d",
		atomic.LoadInt64(&s.Folded), atomic.LoadInt64(&s.Propagated),
		atomic.LoadInt64(&s.CSE), atomic.LoadInt64(&s.DeadBinds),
		atomic.LoadInt64(&s.Inlined))
}

// Optimize rewrites every function of the analyzed program in place and
// returns transformation counts. It is the sequential driver; the parallel
// compiler (internal/selfcomp) calls OptimizeFunc / InlineFunc per worker,
// one top-level unit (a function and its lifted nest) per worker at a time.
func Optimize(info *sema.Info, opts Options) *Stats {
	st := &Stats{}
	if opts.Level <= 0 {
		return st
	}
	for _, name := range info.Order {
		OptimizeFunc(info, info.Funcs[name].Decl, opts, st)
	}
	if opts.Level >= 2 {
		snap := Snapshot(info)
		for _, name := range info.Order {
			InlineFunc(info, info.Funcs[name].Decl, snap, opts, st)
			OptimizeFunc(info, info.Funcs[name].Decl, opts, st)
		}
	}
	return st
}

// OptimizeFunc runs the local rewrites (fold, propagate, CSE, DCE) on one
// function body to a bounded fixed point. Safe to call concurrently for
// functions of distinct top-level units: the walks over a function descend
// into the bodies lifted out of it (sema.Func.Owner names a function's
// unit).
func OptimizeFunc(info *sema.Info, f *ast.FuncDecl, opts Options, st *Stats) {
	if opts.Level <= 0 {
		return
	}
	f.Body = ownNested(info, f.Body)
	for round := 0; round < opts.maxRounds(); round++ {
		before := snapshotCounts(st)
		f.Body = foldExpr(info, f.Body, st)
		f.Body = propagate(f.Body, st)
		f.Body = cseExpr(info, f.Body, f.Name, round, st)
		f.Body = dce(info, f.Body, st)
		if snapshotCounts(st) == before {
			return
		}
	}
}

// ownNested gives the tree its own declaration node for each nested
// definition that is still the lifted declaration sema registered. The
// optimizer replaces a lifted function's Body field (DESIGN decision 23);
// a tree that shared the declaration would see that write, and so would a
// snapshot of the enclosing function. The copies share their bodies: the
// enclosing function keeps the nest as it stood when its own optimization
// began.
func ownNested(info *sema.Info, e ast.Expr) ast.Expr {
	return ast.Rewrite(e, func(e ast.Expr) ast.Expr {
		let, ok := e.(*ast.Let)
		if !ok {
			return e
		}
		binds, changed := ast.Map(let.Binds, func(b *ast.Bind) *ast.Bind {
			if b.Kind != ast.BindFunc {
				return b
			}
			if lf := info.Funcs[b.Fn.Name]; lf == nil || lf.Decl != b.Fn {
				return b
			}
			nf := *b.Fn
			return &ast.Bind{P: b.P, Kind: b.Kind, Names: b.Names, Fn: &nf}
		})
		if !changed {
			return e
		}
		return &ast.Let{P: let.P, Binds: binds, Body: let.Body}
	})
}

func snapshotCounts(s *Stats) [5]int64 {
	return [5]int64{
		atomic.LoadInt64(&s.Folded), atomic.LoadInt64(&s.Propagated),
		atomic.LoadInt64(&s.CSE), atomic.LoadInt64(&s.DeadBinds),
		atomic.LoadInt64(&s.Inlined),
	}
}

// litValue converts a literal expression to its runtime value.
func litValue(e ast.Expr) (value.Value, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return value.Int(x.Val), true
	case *ast.FloatLit:
		return value.Float(x.Val), true
	case *ast.StrLit:
		return value.Str(x.Val), true
	case *ast.NullLit:
		return value.Null{}, true
	}
	return nil, false
}

// valueLit converts a folded runtime value back to a literal expression.
func valueLit(v value.Value, at ast.Expr) (ast.Expr, bool) {
	pos := at.Pos()
	switch x := v.(type) {
	case value.Int:
		return &ast.IntLit{P: pos, Val: int64(x)}, true
	case value.Float:
		return &ast.FloatLit{P: pos, Val: float64(x)}, true
	case value.Str:
		return &ast.StrLit{P: pos, Val: string(x)}, true
	case value.Null:
		return &ast.NullLit{P: pos}, true
	case value.Bool:
		// The language has no boolean literal; represent as 1/0, which
		// Truthy treats identically.
		if x {
			return &ast.IntLit{P: pos, Val: 1}, true
		}
		return &ast.IntLit{P: pos, Val: 0}, true
	}
	return nil, false
}

// foldExpr folds pure operator calls over literal arguments and
// conditionals with literal tests, bottom-up.
func foldExpr(info *sema.Info, e ast.Expr, st *Stats) ast.Expr {
	return ast.Rewrite(e, func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.Call:
			id, ok := x.Fun.(*ast.Ident)
			if !ok || id.Ref != ast.RefOperator {
				return e
			}
			op, ok := info.Registry.Lookup(id.Name)
			if !ok || !op.Pure {
				return e
			}
			for _, a := range x.Args {
				if _, lit := litValue(a); !lit {
					return e
				}
			}
			args := make([]value.Value, len(x.Args))
			for i, a := range x.Args {
				args[i], _ = litValue(a)
			}
			v, ok := operator.Fold(op, args)
			if !ok {
				return e
			}
			lit, ok := valueLit(v, e)
			if !ok {
				return e
			}
			atomic.AddInt64(&st.Folded, 1)
			return lit
		case *ast.If:
			v, lit := litValue(x.Cond)
			if !lit {
				return e
			}
			truth, err := value.Truthy(v)
			if err != nil {
				return e // a kind error surfaces at run time
			}
			atomic.AddInt64(&st.Folded, 1)
			if truth {
				return x.Then
			}
			return x.Else
		}
		return e
	})
}

// propagate substitutes literal let bindings into uses and splits
// decompositions of literal multiple-value constructors into value binds.
func propagate(e ast.Expr, st *Stats) ast.Expr {
	return ast.Rewrite(e, func(e ast.Expr) ast.Expr {
		let, ok := e.(*ast.Let)
		if !ok {
			return e
		}
		var binds []*ast.Bind
		consts := make(map[string]ast.Expr)
		for _, b := range let.Binds {
			// <a,b> = <e1,e2> becomes a=e1, b=e2.
			if b.Kind == ast.BindTuple {
				if tup, ok := b.Init.(*ast.TupleExpr); ok && len(tup.Elems) == len(b.Names) {
					for i, n := range b.Names {
						binds = append(binds, &ast.Bind{P: b.P, Kind: ast.BindValue, Names: []string{n}, Init: tup.Elems[i]})
					}
					atomic.AddInt64(&st.Propagated, 1)
					continue
				}
			}
			if b.Kind == ast.BindValue {
				if _, lit := litValue(b.Init); lit {
					consts[b.Names[0]] = b.Init
				}
			}
			binds = append(binds, b)
		}
		if len(consts) == 0 {
			if len(binds) != len(let.Binds) {
				return &ast.Let{P: let.P, Binds: binds, Body: let.Body}
			}
			return e
		}
		// Substitute literal bindings into sibling inits, nested function
		// bodies, and the let body. Alpha-renaming guarantees the names are
		// not rebound anywhere below.
		subst := func(t ast.Expr) ast.Expr {
			return ast.Rewrite(t, func(n ast.Expr) ast.Expr {
				if id, ok := n.(*ast.Ident); ok {
					if lit, ok := consts[id.Name]; ok {
						atomic.AddInt64(&st.Propagated, 1)
						return lit // shared: nodes are never written
					}
				}
				return n
			})
		}
		out := &ast.Let{P: let.P}
		for _, b := range binds {
			if b.Kind == ast.BindFunc {
				// Nested bodies belong to the lifted declaration, which is
				// optimized on its own; the literal flows in as a capture.
				out.Binds = append(out.Binds, b)
				continue
			}
			if _, isConst := consts[b.Names[0]]; isConst && b.Kind == ast.BindValue {
				out.Binds = append(out.Binds, b) // kept for DCE to remove
				continue
			}
			out.Binds = append(out.Binds, &ast.Bind{P: b.P, Kind: b.Kind, Names: b.Names, Init: subst(b.Init)})
		}
		out.Body = subst(let.Body)
		return out
	})
}
