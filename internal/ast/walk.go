package ast

// Visitor is called for every expression node during a Walk. Returning false
// prunes the subtree below e.
type Visitor func(e Expr) bool

// Walk performs a pre-order traversal of the expression tree rooted at e,
// including the bodies of let-bound function definitions.
func Walk(e Expr, v Visitor) {
	if e == nil || !v(e) {
		return
	}
	switch x := e.(type) {
	case *IntLit, *FloatLit, *StrLit, *NullLit, *Ident:
	case *Call:
		Walk(x.Fun, v)
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *TupleExpr:
		for _, el := range x.Elems {
			Walk(el, v)
		}
	case *Let:
		for _, b := range x.Binds {
			if b.Fn != nil {
				Walk(b.Fn.Body, v)
			} else {
				Walk(b.Init, v)
			}
		}
		Walk(x.Body, v)
	case *If:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		Walk(x.Else, v)
	case *Iterate:
		for _, iv := range x.Vars {
			Walk(iv.Init, v)
			Walk(iv.Next, v)
		}
		Walk(x.Cond, v)
		Walk(x.Result, v)
	}
}

// Rewriter transforms an expression bottom-up. It receives a node whose
// children have already been rewritten and returns its replacement.
type Rewriter func(e Expr) Expr

// Rewrite applies r bottom-up over the tree rooted at e and returns the new
// root. It is copy-on-change: a node is rebuilt, with fresh child slices,
// only when one of its children changed, so an unchanged subtree comes back
// as the very node that went in and r sees the original node. Neither the
// input tree nor r's argument is ever written; the trees before and after
// share every unchanged subtree (DESIGN decision 23).
func Rewrite(e Expr, r Rewriter) Expr {
	if e == nil {
		return nil
	}
	sub := func(e Expr) Expr { return Rewrite(e, r) }
	switch x := e.(type) {
	case *Call:
		fun := Rewrite(x.Fun, r)
		if args, changed := Map(x.Args, sub); changed || fun != x.Fun {
			x = &Call{P: x.P, Fun: fun, Args: args, Tail: x.Tail}
		}
		return r(x)
	case *TupleExpr:
		if elems, changed := Map(x.Elems, sub); changed {
			x = &TupleExpr{P: x.P, Elems: elems}
		}
		return r(x)
	case *Let:
		binds, changed := Map(x.Binds, func(b *Bind) *Bind {
			if b.Fn == nil {
				return b.WithInit(Rewrite(b.Init, r))
			}
			body := Rewrite(b.Fn.Body, r)
			if body == b.Fn.Body {
				return b
			}
			nf := *b.Fn
			nf.Body = body
			return &Bind{P: b.P, Kind: b.Kind, Names: b.Names, Fn: &nf}
		})
		if body := Rewrite(x.Body, r); changed || body != x.Body {
			x = &Let{P: x.P, Binds: binds, Body: body}
		}
		return r(x)
	case *If:
		cond, then, els := Rewrite(x.Cond, r), Rewrite(x.Then, r), Rewrite(x.Else, r)
		if cond != x.Cond || then != x.Then || els != x.Else {
			x = &If{P: x.P, Cond: cond, Then: then, Else: els}
		}
		return r(x)
	case *Iterate:
		vars, changed := Map(x.Vars, func(iv *IterVar) *IterVar {
			return iv.With(Rewrite(iv.Init, r), Rewrite(iv.Next, r))
		})
		cond, result := Rewrite(x.Cond, r), Rewrite(x.Result, r)
		if changed || cond != x.Cond || result != x.Result {
			x = &Iterate{P: x.P, Vars: vars, Cond: cond, Result: result}
		}
		return r(x)
	default:
		return r(e)
	}
}

// Map applies f to every element of xs in order, copy-on-change: it returns
// xs itself and false when f returned every element unchanged, and a fresh
// slice and true otherwise. The optimizer's walks build child lists with it.
func Map[T comparable](xs []T, f func(T) T) ([]T, bool) {
	var out []T // nil until an element changes
	for i, x := range xs {
		nx := f(x)
		if nx != x && out == nil {
			out = append(make([]T, 0, len(xs)), xs[:i]...)
		}
		if out != nil {
			out = append(out, nx)
		}
	}
	if out == nil {
		return xs, false
	}
	return out, true
}

// WithInit returns b when init is already its initializer, and otherwise a
// new binding of the same names to init.
func (b *Bind) WithInit(init Expr) *Bind {
	if init == b.Init {
		return b
	}
	return &Bind{P: b.P, Kind: b.Kind, Names: b.Names, Init: init}
}

// With returns iv when init and next are already its expressions, and
// otherwise a new loop variable of the same name over them.
func (iv *IterVar) With(init, next Expr) *IterVar {
	if init == iv.Init && next == iv.Next {
		return iv
	}
	return &IterVar{P: iv.P, Name: iv.Name, Init: init, Next: next}
}

// Clone returns a deep copy of the expression tree, preserving resolution
// metadata on identifiers. The inliner clones callee bodies before
// substituting arguments.
func Clone(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *IntLit:
		c := *x
		return &c
	case *FloatLit:
		c := *x
		return &c
	case *StrLit:
		c := *x
		return &c
	case *NullLit:
		c := *x
		return &c
	case *Ident:
		c := *x
		return &c
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Clone(a)
		}
		return &Call{P: x.P, Fun: Clone(x.Fun), Args: args, Tail: x.Tail}
	case *TupleExpr:
		elems := make([]Expr, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = Clone(el)
		}
		return &TupleExpr{P: x.P, Elems: elems}
	case *Let:
		binds := make([]*Bind, len(x.Binds))
		for i, b := range x.Binds {
			nb := &Bind{P: b.P, Kind: b.Kind, Names: append([]string(nil), b.Names...)}
			if b.Fn != nil {
				nb.Fn = CloneFunc(b.Fn)
			} else {
				nb.Init = Clone(b.Init)
			}
			binds[i] = nb
		}
		return &Let{P: x.P, Binds: binds, Body: Clone(x.Body)}
	case *If:
		return &If{P: x.P, Cond: Clone(x.Cond), Then: Clone(x.Then), Else: Clone(x.Else)}
	case *Iterate:
		vars := make([]*IterVar, len(x.Vars))
		for i, iv := range x.Vars {
			vars[i] = &IterVar{P: iv.P, Name: iv.Name, Init: Clone(iv.Init), Next: Clone(iv.Next)}
		}
		return &Iterate{P: x.P, Vars: vars, Cond: Clone(x.Cond), Result: Clone(x.Result)}
	default:
		return e
	}
}

// CloneFunc deep-copies a function declaration.
func CloneFunc(f *FuncDecl) *FuncDecl {
	return &FuncDecl{
		P:         f.P,
		Name:      f.Name,
		Params:    append([]string(nil), f.Params...),
		Body:      Clone(f.Body),
		Captures:  append([]string(nil), f.Captures...),
		Recursive: f.Recursive,
	}
}

// CloneProgram deep-copies an entire program. The parallel compiler clones
// before destructive passes so that sequential/parallel runs over the same
// input are independent.
func CloneProgram(p *Program) *Program {
	np := &Program{File: p.File}
	for _, d := range p.Defines {
		np.Defines = append(np.Defines, &Define{P: d.P, Name: d.Name, Expr: Clone(d.Expr)})
	}
	for _, f := range p.Funcs {
		np.Funcs = append(np.Funcs, CloneFunc(f))
	}
	return np
}

// Count returns the number of expression nodes in the tree rooted at e. It
// is the weight annotation of §6.2: "every tree node is annotated with the
// size of the subtree below it".
func Count(e Expr) int {
	n := 0
	Walk(e, func(Expr) bool { n++; return true })
	return n
}

// CountProgram totals Count over every function body and define expression.
func CountProgram(p *Program) int {
	n := 0
	for _, d := range p.Defines {
		n += Count(d.Expr)
	}
	for _, f := range p.Funcs {
		n += Count(f.Body)
	}
	return n
}
