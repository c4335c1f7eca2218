// Package ast defines the abstract syntax tree for Delirium coordination
// programs, along with a generic walker, a copy-on-change rewriter, a
// deep-clone operation (used by environment analysis, macro expansion and
// the inliner), and a source printer.
//
// The language has exactly the six constructs of §3 of the paper: atomic
// values, multiple values, let bindings (single value, multiple-value
// decomposition, or function definition), conditionals, iteration, and
// function or operator application.
package ast

import (
	"repro/internal/source"
)

// Expr is implemented by every Delirium expression node.
type Expr interface {
	Pos() source.Pos
	exprNode()
}

// RefKind says what an identifier resolved to during environment analysis.
type RefKind int

// Identifier resolution classes.
const (
	RefUnresolved RefKind = iota
	RefParam              // function parameter; Index is the parameter slot
	RefLet                // let- or iterate-bound variable
	RefFunc               // Delirium function (value use makes a closure)
	RefOperator           // registered sequential operator
	RefCapture            // free variable captured from an enclosing function
)

// String names the resolution class.
func (k RefKind) String() string {
	switch k {
	case RefUnresolved:
		return "unresolved"
	case RefParam:
		return "parameter"
	case RefLet:
		return "let-binding"
	case RefFunc:
		return "function"
	case RefOperator:
		return "operator"
	case RefCapture:
		return "capture"
	default:
		return "refkind?"
	}
}

// IntLit is an integer atomic value.
type IntLit struct {
	P   source.Pos
	Val int64
}

// FloatLit is a floating-point atomic value.
type FloatLit struct {
	P   source.Pos
	Val float64
}

// StrLit is a string atomic value.
type StrLit struct {
	P   source.Pos
	Val string
}

// NullLit is the distinguished NULL value.
type NullLit struct {
	P source.Pos
}

// Ident is a use of a name. Environment analysis fills Ref (and, for
// parameters and captures, Index).
type Ident struct {
	P     source.Pos
	Name  string
	Ref   RefKind
	Index int // parameter or capture slot when Ref is RefParam/RefCapture
}

// Call applies a function or operator to arguments. When Fun is an Ident
// resolved to RefFunc the call expands the callee's subgraph; when resolved
// to RefOperator it schedules a sequential operator; any other callee is a
// first-class function value invoked through the call-closure operator.
type Call struct {
	P    source.Pos
	Fun  Expr
	Args []Expr
	// Tail is set by the compiler when this call is in tail position of its
	// enclosing function; the runtime reuses the activation (§7).
	Tail bool
}

// TupleExpr builds a multiple-value package: <e1, ..., en>.
type TupleExpr struct {
	P     source.Pos
	Elems []Expr
}

// BindKind discriminates the three let-binding forms of §3.
type BindKind int

// Let binding forms.
const (
	BindValue BindKind = iota // name = expr
	BindTuple                 // <a, b, c> = expr
	BindFunc                  // name(params) expr
)

// Bind is a single binding inside a let expression.
type Bind struct {
	P     source.Pos
	Kind  BindKind
	Names []string  // one name for BindValue; n names for BindTuple
	Init  Expr      // nil for BindFunc
	Fn    *FuncDecl // non-nil for BindFunc
}

// Let evaluates bindings (all of whose independent initializers may run in
// parallel) and then the body.
type Let struct {
	P     source.Pos
	Binds []*Bind
	Body  Expr
}

// If is a conditional expression; both arms are always present.
type If struct {
	P    source.Pos
	Cond Expr
	Then Expr
	Else Expr
}

// IterVar is one loop-carried variable of an iterate expression:
// name = init, next.
type IterVar struct {
	P    source.Pos
	Name string
	Init Expr
	Next Expr
}

// Iterate is the iteration construct:
//
//	iterate { v1=i1,n1  v2=i2,n2 ... } while cond, result expr
//
// Each pass binds the loop variables, evaluates every Next expression, and
// repeats while cond holds; the result expression is evaluated in the scope
// of the final variable values. The compiler lowers Iterate to a
// tail-recursive function (§3 construct 5), which the runtime executes with
// activation reuse.
type Iterate struct {
	P      source.Pos
	Vars   []*IterVar
	Cond   Expr
	Result Expr
}

// FuncDecl is a function definition, either top-level or let-bound.
// Functions are first class: they may be passed as arguments, bound to
// variables, and returned as values.
type FuncDecl struct {
	P      source.Pos
	Name   string
	Params []string
	Body   Expr
	// Captures lists the free variables of a nested function in evaluation
	// order; filled by environment analysis. Top-level functions capture
	// nothing.
	Captures []string
	// Recursive is set by environment analysis when the function can reach
	// itself through calls; the runtime schedules recursive expansions at
	// the lowest priority (§7).
	Recursive bool
}

// Pos returns the declaration position. FuncDecl is not itself an Expr, but
// positions are reported uniformly.
func (f *FuncDecl) Pos() source.Pos { return f.P }

// Define is a preprocessor symbolic constant: define NAME expr. The macro
// expansion pass replaces every use of NAME with the expression (§5.1: "these
// symbolic constants are replaced with values by the pre-processor").
type Define struct {
	P    source.Pos
	Name string
	Expr Expr
}

// Program is one parsed Delirium source file: preprocessor definitions plus
// a set of functions, one of which is called main.
type Program struct {
	File    string
	Defines []*Define
	Funcs   []*FuncDecl
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Pos / exprNode implementations.

// Pos returns the literal's position.
func (e *IntLit) Pos() source.Pos { return e.P }

// Pos returns the literal's position.
func (e *FloatLit) Pos() source.Pos { return e.P }

// Pos returns the literal's position.
func (e *StrLit) Pos() source.Pos { return e.P }

// Pos returns the literal's position.
func (e *NullLit) Pos() source.Pos { return e.P }

// Pos returns the identifier's position.
func (e *Ident) Pos() source.Pos { return e.P }

// Pos returns the call's position.
func (e *Call) Pos() source.Pos { return e.P }

// Pos returns the package constructor's position.
func (e *TupleExpr) Pos() source.Pos { return e.P }

// Pos returns the let's position.
func (e *Let) Pos() source.Pos { return e.P }

// Pos returns the conditional's position.
func (e *If) Pos() source.Pos { return e.P }

// Pos returns the iterate's position.
func (e *Iterate) Pos() source.Pos { return e.P }

func (*IntLit) exprNode()    {}
func (*FloatLit) exprNode()  {}
func (*StrLit) exprNode()    {}
func (*NullLit) exprNode()   {}
func (*Ident) exprNode()     {}
func (*Call) exprNode()      {}
func (*TupleExpr) exprNode() {}
func (*Let) exprNode()       {}
func (*If) exprNode()        {}
func (*Iterate) exprNode()   {}
