// Package sema implements environment analysis, the fourth compiler pass of
// Table 1. It resolves every identifier to a parameter, let binding,
// function, or registered operator; alpha-renames local binders so that
// every binding in a program has a unique name; lifts nested function
// definitions to the top level, computing their capture sets (the values a
// closure carries, §3/§7); detects recursion so the runtime can schedule
// recursive call-closure expansions at the lowest priority; verifies call
// arities and rejects circular data dependencies among sibling let
// bindings; and marks calls in tail position for the runtime's activation
// reuse.
//
// In the parallel compiler (internal/selfcomp) this pass is an
// inherited-attribute walk (§6.2 strategy 2): the global environment is
// computed from the program crown, then each function body is analyzed
// independently, the scope environment flowing down the tree as the
// inherited attribute.
package sema

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/operator"
	"repro/internal/source"
)

// Func is one analyzed function: a top-level declaration or a lifted nested
// definition.
type Func struct {
	// Decl is the analyzed declaration. For lifted functions Decl.Name is
	// the unique qualified name (e.g. "main$helper").
	Decl *ast.FuncDecl
	// TopLevel reports whether the function appeared at the top level of
	// the source program.
	TopLevel bool
	// Owner names the top-level function whose nest this function belongs
	// to: the function itself when TopLevel, else the function it was
	// lifted out of. Walks over an owner's body descend into its nest's
	// lifted bodies, so parallel rewriters keep a nest on one worker.
	Owner string
}

// Arity returns the user-visible parameter count (captures excluded).
func (f *Func) Arity() int { return len(f.Decl.Params) }

// Info is the result of environment analysis.
type Info struct {
	// Prog is the analyzed program: a deep copy of the input with binders
	// alpha-renamed and identifier references resolved.
	Prog *ast.Program
	// Funcs maps unique function names (top-level and lifted) to analysis
	// results.
	Funcs map[string]*Func
	// Order lists function names deterministically: top-level functions in
	// source order, then lifted functions in lift order.
	Order []string
	// Registry is the operator registry the program was resolved against.
	Registry *operator.Registry
}

// Main returns the program entry point, or nil if absent.
func (in *Info) Main() *Func { return in.Funcs["main"] }

// String summarizes the analysis result.
func (in *Info) String() string {
	return fmt.Sprintf("sema.Info(%d functions)", len(in.Funcs))
}

// Analyze performs environment analysis (see the package comment). The
// input program is not modified; diagnostics are appended to diags. The
// returned Info is meaningful only when diags has no errors.
//
// Analyze is the sequential driver; the parallel compiler (internal/selfcomp)
// calls Collect (crown), AnalyzeOne per Crown.Decls entry (workers), and
// Finalize (crown) with the same semantics.
func Analyze(prog *ast.Program, reg *operator.Registry, diags *source.DiagList) *Info {
	crown := Collect(prog, reg, diags)
	decls := crown.Decls()
	units := make([]*FuncUnit, len(decls))
	for i, f := range decls {
		units[i] = AnalyzeOne(crown, f, diags)
	}
	return Finalize(crown, units, diags)
}

// Crown is the global environment computed sequentially from the program's
// top level before per-function analysis fans out (§6.2: the walks traverse
// the crown of the tree, clipping off subtrees handled independently).
type Crown struct {
	// Prog is the deep-copied program the units mutate.
	Prog   *ast.Program
	reg    *operator.Registry
	global map[string]*ast.FuncDecl
}

// Collect clones the program and gathers the global function environment,
// reporting duplicate definitions and operator-name conflicts.
func Collect(prog *ast.Program, reg *operator.Registry, diags *source.DiagList) *Crown {
	clone := ast.CloneProgram(prog)
	if len(clone.Defines) > 0 {
		// Macro expansion must run first; surviving defines indicate a
		// driver bug rather than a user error.
		diags.Errorf(clone.Defines[0].P, "internal: program reached environment analysis with unexpanded defines")
	}
	c := &Crown{Prog: clone, reg: reg, global: make(map[string]*ast.FuncDecl, len(clone.Funcs))}
	for _, f := range clone.Funcs {
		if prev, dup := c.global[f.Name]; dup {
			diags.Errorf(f.P, "function %s redefined", f.Name)
			diags.Notef(prev.P, "previous definition of %s", f.Name)
			continue
		}
		if _, isOp := reg.Lookup(f.Name); isOp {
			diags.Errorf(f.P, "function %s conflicts with a registered operator of the same name", f.Name)
		}
		c.global[f.Name] = f
	}
	return c
}

// Decls returns the top-level declarations to analyze, in source order,
// skipping redefinitions (Collect already reported them).
func (c *Crown) Decls() []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(c.Prog.Funcs))
	for _, f := range c.Prog.Funcs {
		if c.global[f.Name] == f {
			out = append(out, f)
		}
	}
	return out
}

// FuncUnit is the per-function analysis result: the function itself plus
// any nested definitions lifted out of it. Binder uniqueness and capture
// attribution are confined to one top-level function's nest, so units are
// independent and may be produced concurrently.
type FuncUnit struct {
	Decl   *ast.FuncDecl
	Lifted []*ast.FuncDecl

	scopes []*fnScope
	defFS  map[string]*fnScope
}

// AnalyzeOne resolves one top-level function in the crown's environment.
// Safe to call concurrently for distinct functions; each call must use its
// own diags (merge them afterwards to keep deterministic order).
func AnalyzeOne(c *Crown, f *ast.FuncDecl, diags *source.DiagList) *FuncUnit {
	r := &resolver{
		reg:    c.reg,
		diags:  diags,
		global: c.global,
		defFS:  make(map[string]*fnScope),
		seen:   make(map[string]bool),
	}
	r.analyzeFunc(f, nil, nil)
	return &FuncUnit{Decl: f, Lifted: r.lifted, scopes: r.scopes, defFS: r.defFS}
}

// Finalize merges units into an Info: it runs each nest's capture-lifting
// fixpoint, marks recursion over the whole reference graph, and flags tail
// calls.
func Finalize(c *Crown, units []*FuncUnit, diags *source.DiagList) *Info {
	info := &Info{Prog: c.Prog, Funcs: make(map[string]*Func), Registry: c.reg}
	var allScopes []*fnScope
	for _, u := range units {
		info.Order = append(info.Order, u.Decl.Name)
		info.Funcs[u.Decl.Name] = &Func{Decl: u.Decl, TopLevel: true, Owner: u.Decl.Name}
	}
	for _, u := range units {
		for _, lf := range u.Lifted {
			info.Order = append(info.Order, lf.Name)
			info.Funcs[lf.Name] = &Func{Decl: lf, Owner: u.Decl.Name}
		}
		propagateCaptures(u.scopes, u.defFS)
		allScopes = append(allScopes, u.scopes...)
	}
	markRecursion(allScopes)
	for _, name := range info.Order {
		markTails(info.Funcs[name].Decl.Body)
	}
	warnUnusedParams(info, diags)
	return info
}

// warnUnusedParams reports parameters never referenced in their function's
// body. Unused parameters are legal (the coordination framework may thread
// values for future use) but usually indicate a framework bug, so the
// compiler warns without failing.
func warnUnusedParams(info *Info, diags *source.DiagList) {
	for _, name := range info.Order {
		decl := info.Funcs[name].Decl
		if len(decl.Params) == 0 {
			continue
		}
		used := make(map[string]bool, len(decl.Params))
		ast.Walk(decl.Body, func(e ast.Expr) bool {
			if id, ok := e.(*ast.Ident); ok {
				switch id.Ref {
				case ast.RefParam, ast.RefCapture, ast.RefLet:
					used[id.Name] = true
				}
			}
			return true
		})
		// Names forwarded as captures of referenced functions count too.
		frees := FreeNames(info, []ast.Expr{decl.Body}, nil)
		for _, n := range frees {
			used[n] = true
		}
		for _, p := range decl.Params {
			if !used[p] {
				diags.Warnf(decl.P, "parameter %s of %s is never used", displayName(p), displayName(decl.Name))
			}
		}
	}
}

// displayName strips alpha-renaming suffixes for user-facing messages.
func displayName(unique string) string {
	if i := indexByte(unique, '$'); i > 0 {
		return unique[:i]
	}
	return unique
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// binding is one resolved name in a scope.
type binding struct {
	unique string
	kind   ast.RefKind // RefParam or RefLet for locals; RefFunc for nested fns
	fs     *fnScope    // owning function
	fn     string      // unique function name when kind == RefFunc
	pos    source.Pos
}

// env is a lexically-chained scope.
type env struct {
	parent *env
	names  map[string]*binding
}

func newEnv(parent *env) *env { return &env{parent: parent, names: make(map[string]*binding)} }

func (e *env) lookup(name string) *binding {
	for s := e; s != nil; s = s.parent {
		if b, ok := s.names[name]; ok {
			return b
		}
	}
	return nil
}

// fnScope is a function boundary used for capture attribution.
type fnScope struct {
	parent   *fnScope
	decl     *ast.FuncDecl
	captures []string        // unique names captured, in first-use order
	capSet   map[string]bool // membership for captures
	refs     map[string]bool // unique names of functions referenced
}

// isAncestorOf reports whether a encloses (or equals) b.
func (a *fnScope) isAncestorOf(b *fnScope) bool {
	for s := b; s != nil; s = s.parent {
		if s == a {
			return true
		}
	}
	return false
}

func (fs *fnScope) addCapture(name string) {
	if !fs.capSet[name] {
		fs.capSet[name] = true
		fs.captures = append(fs.captures, name)
	}
}

type resolver struct {
	reg    *operator.Registry
	diags  *source.DiagList
	global map[string]*ast.FuncDecl
	lifted []*ast.FuncDecl
	scopes []*fnScope          // this nest's function scopes, for fixpoint passes
	defFS  map[string]*fnScope // defining function scope of each unique local
	seen   map[string]bool     // binder spellings already used in this nest
	nextID int
}

// unique returns a nest-unique binder name, preserving the original
// spelling for its first occurrence. Uniqueness within one top-level
// function's nest suffices: captures, optimizer rewrites, and graph
// environments never mix binders across nests.
func (r *resolver) unique(name string) string {
	if !r.seen[name] && r.global[name] == nil {
		if _, isOp := r.reg.Lookup(name); !isOp {
			r.seen[name] = true
			return name
		}
	}
	r.nextID++
	return fmt.Sprintf("%s$%d", name, r.nextID)
}

// analyzeFunc resolves one function (top-level or nested). outer is the
// enclosing lexical environment (nil for top level); parentFS the enclosing
// function scope.
func (r *resolver) analyzeFunc(f *ast.FuncDecl, outer *env, parentFS *fnScope) *fnScope {
	fs := &fnScope{parent: parentFS, decl: f, capSet: make(map[string]bool), refs: make(map[string]bool)}
	r.scopes = append(r.scopes, fs)
	scope := newEnv(outer)
	for i, p := range f.Params {
		if scope.names[p] != nil {
			r.diags.Errorf(f.P, "duplicate parameter %s in function %s", p, f.Name)
			continue
		}
		u := r.unique(p)
		f.Params[i] = u
		scope.names[p] = &binding{unique: u, kind: ast.RefParam, fs: fs, pos: f.P}
		r.defFS[u] = fs
	}
	r.resolveExpr(f.Body, scope, fs, false)
	f.Captures = fs.captures // provisional; propagateCaptures finalizes
	return fs
}

// resolveExpr resolves e in the given scope. isCallee marks an identifier
// appearing as the head of a call.
func (r *resolver) resolveExpr(e ast.Expr, sc *env, fs *fnScope, isCallee bool) {
	switch x := e.(type) {
	case nil, *ast.IntLit, *ast.FloatLit, *ast.StrLit, *ast.NullLit:
	case *ast.Ident:
		r.resolveIdent(x, sc, fs, isCallee)
	case *ast.Call:
		if id, ok := x.Fun.(*ast.Ident); ok {
			r.resolveIdent(id, sc, fs, true)
			r.checkArity(id, len(x.Args), x.P)
		} else {
			r.resolveExpr(x.Fun, sc, fs, false)
		}
		for _, a := range x.Args {
			r.resolveExpr(a, sc, fs, false)
		}
	case *ast.TupleExpr:
		for _, el := range x.Elems {
			r.resolveExpr(el, sc, fs, false)
		}
	case *ast.Let:
		r.resolveLet(x, sc, fs)
	case *ast.If:
		r.resolveExpr(x.Cond, sc, fs, false)
		r.resolveExpr(x.Then, sc, fs, false)
		r.resolveExpr(x.Else, sc, fs, false)
	case *ast.Iterate:
		r.resolveIterate(x, sc, fs)
	default:
		r.diags.Errorf(e.Pos(), "internal: unknown expression %T in environment analysis", e)
	}
}

func (r *resolver) resolveIdent(id *ast.Ident, sc *env, fs *fnScope, isCallee bool) {
	if b := sc.lookup(id.Name); b != nil {
		if b.kind == ast.RefFunc {
			id.Ref = ast.RefFunc
			id.Name = b.fn
			fs.refs[b.fn] = true
			return
		}
		id.Name = b.unique
		if b.fs == fs {
			id.Ref = b.kind
			return
		}
		// Captured from an enclosing function: every function scope between
		// here and the owner must forward the value.
		id.Ref = ast.RefCapture
		for s := fs; s != nil && s != b.fs; s = s.parent {
			s.addCapture(b.unique)
		}
		return
	}
	if _, ok := r.global[id.Name]; ok {
		id.Ref = ast.RefFunc
		fs.refs[id.Name] = true
		return
	}
	if _, ok := r.reg.Lookup(id.Name); ok {
		if !isCallee {
			r.diags.Errorf(id.P, "operator %s is not a first-class value; wrap it in a function to pass it", id.Name)
		}
		id.Ref = ast.RefOperator
		return
	}
	r.diags.Errorf(id.P, "undefined name %s", id.Name)
}

func (r *resolver) checkArity(id *ast.Ident, n int, pos source.Pos) {
	switch id.Ref {
	case ast.RefFunc:
		if f := r.declByUnique(id.Name); f != nil && len(f.Params) != n {
			r.diags.Errorf(pos, "function %s expects %d arguments, got %d", id.Name, len(f.Params), n)
		}
	case ast.RefOperator:
		if op, ok := r.reg.Lookup(id.Name); ok && !op.AcceptsArgs(n) {
			r.diags.Errorf(pos, "operator %s expects %d arguments, got %d", id.Name, op.Arity, n)
		}
	}
}

func (r *resolver) declByUnique(name string) *ast.FuncDecl {
	if f, ok := r.global[name]; ok {
		return f
	}
	for _, lf := range r.lifted {
		if lf.Name == name {
			return lf
		}
	}
	return nil
}

func (r *resolver) resolveLet(let *ast.Let, sc *env, fs *fnScope) {
	inner := newEnv(sc)
	// letrec: bind every name before resolving any initializer.
	for _, b := range let.Binds {
		switch b.Kind {
		case ast.BindFunc:
			name := b.Fn.Name
			if inner.names[name] != nil {
				r.diags.Errorf(b.P, "name %s bound more than once in the same let", name)
				continue
			}
			liftName := r.liftName(fs.decl.Name, name)
			b.Fn.Name = liftName
			inner.names[name] = &binding{unique: liftName, kind: ast.RefFunc, fs: fs, fn: liftName, pos: b.P}
		default:
			for i, name := range b.Names {
				if inner.names[name] != nil {
					r.diags.Errorf(b.P, "name %s bound more than once in the same let", name)
					continue
				}
				u := r.unique(name)
				b.Names[i] = u
				inner.names[name] = &binding{unique: u, kind: ast.RefLet, fs: fs, pos: b.P}
				r.defFS[u] = fs
			}
		}
	}
	// Resolve initializers and nested function bodies.
	for _, b := range let.Binds {
		if b.Kind == ast.BindFunc {
			r.analyzeFunc(b.Fn, inner, fs)
			r.lifted = append(r.lifted, b.Fn)
			continue
		}
		r.resolveExpr(b.Init, inner, fs, false)
	}
	r.checkLetCycles(let)
	r.resolveExpr(let.Body, inner, fs, false)
}

// liftName produces a unique top-level name for a nested function.
func (r *resolver) liftName(outer, inner string) string {
	base := outer + "$" + inner
	name := base
	for i := 2; ; i++ {
		if r.global[name] == nil && r.declByUnique(name) == nil {
			return name
		}
		name = fmt.Sprintf("%s%d", base, i)
	}
}

// checkLetCycles rejects circular data dependencies among sibling value
// bindings: a dataflow graph with a cycle would deadlock at run time, so it
// is reported here.
func (r *resolver) checkLetCycles(let *ast.Let) {
	owner := make(map[string]int) // unique name -> bind index
	for i, b := range let.Binds {
		if b.Kind == ast.BindFunc {
			continue
		}
		for _, n := range b.Names {
			owner[n] = i
		}
	}
	deps := make([][]int, len(let.Binds))
	for i, b := range let.Binds {
		if b.Kind == ast.BindFunc {
			continue
		}
		seen := make(map[int]bool)
		ast.Walk(b.Init, func(e ast.Expr) bool {
			if id, ok := e.(*ast.Ident); ok && (id.Ref == ast.RefLet || id.Ref == ast.RefCapture) {
				if j, ok := owner[id.Name]; ok && !seen[j] {
					seen[j] = true
					deps[i] = append(deps[i], j)
				}
			}
			return true
		})
	}
	// DFS cycle detection.
	state := make([]int, len(let.Binds)) // 0 unvisited, 1 active, 2 done
	var visit func(i int) bool
	visit = func(i int) bool {
		switch state[i] {
		case 1:
			return false
		case 2:
			return true
		}
		state[i] = 1
		for _, j := range deps[i] {
			if !visit(j) {
				return false
			}
		}
		state[i] = 2
		return true
	}
	for i, b := range let.Binds {
		if b.Kind != ast.BindFunc && !visit(i) {
			r.diags.Errorf(b.P, "circular data dependency among let bindings (binding of %v)", b.Names)
			return
		}
	}
}

func (r *resolver) resolveIterate(it *ast.Iterate, sc *env, fs *fnScope) {
	// Initializers run in the enclosing scope.
	for _, iv := range it.Vars {
		r.resolveExpr(iv.Init, sc, fs, false)
	}
	inner := newEnv(sc)
	for _, iv := range it.Vars {
		if inner.names[iv.Name] != nil {
			r.diags.Errorf(iv.P, "loop variable %s bound more than once in the same iterate", iv.Name)
			continue
		}
		u := r.unique(iv.Name)
		orig := iv.Name
		iv.Name = u
		inner.names[orig] = &binding{unique: u, kind: ast.RefLet, fs: fs, pos: iv.P}
		r.defFS[u] = fs
	}
	for _, iv := range it.Vars {
		r.resolveExpr(iv.Next, inner, fs, false)
	}
	r.resolveExpr(it.Cond, inner, fs, false)
	r.resolveExpr(it.Result, inner, fs, false)
}

// propagateCaptures runs the lambda-lifting fixpoint over one nest: a
// function that references another function must also capture whatever that
// function captures (so it can forward the values at the call or
// closure-creation site), unless the names are its own locals.
func propagateCaptures(scopes []*fnScope, defFS map[string]*fnScope) {
	byName := make(map[string]*fnScope, len(scopes))
	for _, fs := range scopes {
		byName[fs.decl.Name] = fs
	}
	for changed := true; changed; {
		changed = false
		for _, fs := range scopes {
			for ref := range fs.refs {
				g, ok := byName[ref]
				if !ok {
					continue
				}
				for _, n := range g.captures {
					def := defFS[n]
					if def == fs || fs.capSet[n] {
						continue // local to fs, or already captured
					}
					if def != nil && def.isAncestorOf(fs) {
						fs.addCapture(n)
						changed = true
					}
				}
			}
		}
	}
	for _, fs := range scopes {
		sort.Strings(fs.captures)
		fs.decl.Captures = fs.captures
	}
}

// markRecursion sets Recursive on every function that can reach itself
// through the reference graph (a conservative over-approximation: a
// first-class use counts as a possible call).
func markRecursion(scopes []*fnScope) {
	adj := make(map[string][]string, len(scopes))
	for _, fs := range scopes {
		names := make([]string, 0, len(fs.refs))
		for ref := range fs.refs {
			names = append(names, ref)
		}
		sort.Strings(names)
		adj[fs.decl.Name] = names
	}
	for _, fs := range scopes {
		start := fs.decl.Name
		visited := make(map[string]bool)
		stack := append([]string(nil), adj[start]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == start {
				fs.decl.Recursive = true
				break
			}
			if visited[n] {
				continue
			}
			visited[n] = true
			stack = append(stack, adj[n]...)
		}
	}
}

// markTails flags calls in tail position so the runtime can reuse the
// caller's activation (§7: tail recursion is handled efficiently).
func markTails(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Call:
		x.Tail = true
	case *ast.Let:
		markTails(x.Body)
	case *ast.If:
		markTails(x.Then)
		markTails(x.Else)
	}
	// Iterate results are lowered separately; literals and identifiers have
	// nothing to mark.
}

// FreeNames returns the unique names of local bindings (parameters, lets,
// captures) referenced by the expressions but not bound within them, plus
// the transitive captures of any functions referenced. bound seeds the
// excluded set (e.g. a loop's variables). Results are sorted.
//
// The graph builder uses this to compute the capture list of the hidden
// tail-recursive function an iterate lowers to.
func FreeNames(info *Info, exprs []ast.Expr, bound []string) []string {
	excl := make(map[string]bool, len(bound))
	for _, b := range bound {
		excl[b] = true
	}
	free := make(map[string]bool)
	var walkBound func(e ast.Expr, local map[string]bool)
	walkBound = func(e ast.Expr, local map[string]bool) {
		switch x := e.(type) {
		case nil, *ast.IntLit, *ast.FloatLit, *ast.StrLit, *ast.NullLit:
		case *ast.Ident:
			switch x.Ref {
			case ast.RefParam, ast.RefLet, ast.RefCapture:
				if !excl[x.Name] && !local[x.Name] {
					free[x.Name] = true
				}
			case ast.RefFunc:
				if f, ok := info.Funcs[x.Name]; ok {
					for _, c := range f.Decl.Captures {
						if !excl[c] && !local[c] {
							free[c] = true
						}
					}
				}
			}
		case *ast.Call:
			walkBound(x.Fun, local)
			for _, a := range x.Args {
				walkBound(a, local)
			}
		case *ast.TupleExpr:
			for _, el := range x.Elems {
				walkBound(el, local)
			}
		case *ast.Let:
			inner := make(map[string]bool, len(local)+len(x.Binds))
			for k := range local {
				inner[k] = true
			}
			for _, b := range x.Binds {
				for _, n := range b.Names {
					inner[n] = true
				}
				if b.Fn != nil {
					inner[b.Fn.Name] = true
				}
			}
			for _, b := range x.Binds {
				if b.Fn != nil {
					// The lifted body is analyzed separately; at this level
					// only its captures are free uses.
					if f, ok := info.Funcs[b.Fn.Name]; ok {
						for _, c := range f.Decl.Captures {
							if !excl[c] && !inner[c] {
								free[c] = true
							}
						}
					}
					continue
				}
				walkBound(b.Init, inner)
			}
			walkBound(x.Body, inner)
		case *ast.If:
			walkBound(x.Cond, local)
			walkBound(x.Then, local)
			walkBound(x.Else, local)
		case *ast.Iterate:
			inner := make(map[string]bool, len(local)+len(x.Vars))
			for k := range local {
				inner[k] = true
			}
			for _, iv := range x.Vars {
				walkBound(iv.Init, local)
				inner[iv.Name] = true
			}
			for _, iv := range x.Vars {
				walkBound(iv.Next, inner)
			}
			walkBound(x.Cond, inner)
			walkBound(x.Result, inner)
		}
	}
	for _, e := range exprs {
		walkBound(e, make(map[string]bool))
	}
	out := make([]string, 0, len(free))
	for n := range free {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
