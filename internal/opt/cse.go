package opt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/sema"
)

// cseExpr eliminates duplicate pure sub-expressions within each
// unconditional evaluation region.
//
// In the coordination-graph model every binding of a let evaluates eagerly,
// while the arms of a conditional, the stages of an iterate, and nested
// function bodies are deferred subgraphs. A pure expression may therefore
// be computed once and shared exactly when its duplicate occurrences lie in
// the same region: the set of expressions reachable from one let without
// crossing an If arm, an Iterate, or a function boundary. Hoisting across
// those boundaries could execute work (or raise a run-time error such as
// division by zero) that the original program avoided.
func cseExpr(info *sema.Info, e ast.Expr, fname string, round int, st *Stats) ast.Expr {
	c := &cser{info: info, fname: fname, round: round, st: st}
	// The optimizer may run the local fixpoint more than once over the
	// same body (the level-2 pipeline re-optimizes after inlining, with
	// round restarting at 0). Seed the ID counter past every cse binder
	// already present so regenerated names can never collide with a
	// surviving earlier binder — a collision breaks the alpha-renaming
	// invariant graph conversion depends on.
	c.nextID = maxCSEID(e, fname)
	return c.rewrite(e)
}

// maxCSEID returns the largest trailing ID of any cse$fname$… binder in
// the tree (0 when none exist).
func maxCSEID(e ast.Expr, fname string) int {
	prefix := "cse$" + fname + "$"
	max := 0
	ast.Walk(e, func(x ast.Expr) bool {
		let, ok := x.(*ast.Let)
		if !ok {
			return true
		}
		for _, b := range let.Binds {
			for _, name := range b.Names {
				rest, ok := strings.CutPrefix(name, prefix)
				if !ok {
					continue
				}
				if i := strings.LastIndexByte(rest, '$'); i >= 0 {
					rest = rest[i+1:]
				}
				if id, err := strconv.Atoi(rest); err == nil && id > max {
					max = id
				}
			}
		}
		return true
	})
	return max
}

type cser struct {
	info   *sema.Info
	fname  string
	round  int
	st     *Stats
	nextID int

	// Per-region tables, reused across the lets of one walk. A pure call's
	// structural key (see appendKey) names a slot; key strings are
	// allocated only when a slot is created.
	key    []byte
	slots  map[string]int
	counts []int       // occurrences per slot
	names  []string    // fresh binder per slot, "" until the first replacement
	extra  []*ast.Bind // binders minted for the current let
}

// rewrite walks the tree top-down so outer regions are processed before the
// deferred subtrees they contain. It is copy-on-change: an unchanged
// subtree is returned as is.
func (c *cser) rewrite(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Call:
		fun := c.rewrite(x.Fun)
		if args, changed := ast.Map(x.Args, c.rewrite); changed || fun != x.Fun {
			return &ast.Call{P: x.P, Fun: fun, Args: args, Tail: x.Tail}
		}
		return x
	case *ast.TupleExpr:
		if elems, changed := ast.Map(x.Elems, c.rewrite); changed {
			return &ast.TupleExpr{P: x.P, Elems: elems}
		}
		return x
	case *ast.If:
		cond, then, els := c.rewrite(x.Cond), c.rewrite(x.Then), c.rewrite(x.Else)
		if cond != x.Cond || then != x.Then || els != x.Else {
			return &ast.If{P: x.P, Cond: cond, Then: then, Else: els}
		}
		return x
	case *ast.Iterate:
		vars, changed := ast.Map(x.Vars, func(iv *ast.IterVar) *ast.IterVar {
			return iv.With(c.rewrite(iv.Init), c.rewrite(iv.Next))
		})
		cond, result := c.rewrite(x.Cond), c.rewrite(x.Result)
		if changed || cond != x.Cond || result != x.Result {
			return &ast.Iterate{P: x.P, Vars: vars, Cond: cond, Result: result}
		}
		return x
	case *ast.Let:
		let := c.cseLet(x)
		binds, changed := ast.Map(let.Binds, func(b *ast.Bind) *ast.Bind {
			if b.Kind == ast.BindFunc {
				return b
			}
			return b.WithInit(c.rewrite(b.Init))
		})
		if body := c.rewrite(let.Body); changed || body != let.Body {
			return &ast.Let{P: let.P, Binds: binds, Body: body}
		}
		return let
	default:
		return e
	}
}

// cseLet finds duplicated pure calls in the region rooted at this let and
// binds each to a fresh name. It returns let itself when no pure call
// occurs twice.
func (c *cser) cseLet(let *ast.Let) *ast.Let {
	if c.slots == nil {
		c.slots = make(map[string]int)
	}
	clear(c.slots)
	c.counts, c.names, c.extra = c.counts[:0], c.names[:0], nil
	if !c.countRegion(let) {
		return let
	}
	binds, _ := ast.Map(let.Binds, func(b *ast.Bind) *ast.Bind {
		if b.Kind == ast.BindFunc {
			return b
		}
		return b.WithInit(c.replaceRegion(b.Init))
	})
	body := c.replaceRegion(let.Body)
	return &ast.Let{P: let.P, Binds: slices.Concat(binds, c.extra), Body: body}
}

// replace binds a pure call that occurs at least twice in the region to its
// slot's fresh name, minting the binder on the first occurrence.
func (c *cser) replace(call *ast.Call) (ast.Expr, bool) {
	key, ok := c.appendKey(c.key[:0], call)
	c.key = key
	if !ok {
		return nil, false
	}
	slot, ok := c.slots[string(key)]
	if !ok || c.counts[slot] < 2 {
		return nil, false
	}
	name := c.names[slot]
	if name == "" {
		c.nextID++
		name = fmt.Sprintf("cse$%s$%d$%d", c.fname, c.round, c.nextID)
		c.names[slot] = name
		// The call leaves the tree here and nodes are never written, so
		// the new binder may take it as is.
		c.extra = append(c.extra, &ast.Bind{P: call.P, Kind: ast.BindValue,
			Names: []string{name}, Init: call})
	} else {
		atomic.AddInt64(&c.st.CSE, 1)
	}
	return &ast.Ident{P: call.P, Name: name, Ref: ast.RefLet}, true
}

// appendKey appends call's structural key to buf and reports whether call
// is pure: a pure operator applied to literals, identifiers and pure calls.
// Two pure calls have equal keys exactly when they print alike (binder
// uniqueness makes that semantic equality), so CSE never prints. Every
// variable-length field is length-prefixed, and all NaNs share one key as
// they share one printed form.
func (c *cser) appendKey(buf []byte, call *ast.Call) ([]byte, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Ref != ast.RefOperator {
		return buf, false
	}
	op, ok := c.info.Registry.Lookup(id.Name)
	if !ok || !op.Pure {
		return buf, false
	}
	buf = appendName(append(buf, 'C'), id.Name)
	buf = binary.AppendUvarint(buf, uint64(len(call.Args)))
	for _, a := range call.Args {
		switch x := a.(type) {
		case *ast.IntLit:
			buf = binary.LittleEndian.AppendUint64(append(buf, 'i'), uint64(x.Val))
		case *ast.FloatLit:
			bits := math.Float64bits(x.Val)
			if math.IsNaN(x.Val) {
				bits = math.Float64bits(math.NaN())
			}
			buf = binary.LittleEndian.AppendUint64(append(buf, 'f'), bits)
		case *ast.StrLit:
			buf = appendName(append(buf, 's'), x.Val)
		case *ast.NullLit:
			buf = append(buf, 'n')
		case *ast.Ident:
			buf = appendName(append(buf, 'v'), x.Name)
		case *ast.Call:
			if buf, ok = c.appendKey(buf, x); !ok {
				return buf, false
			}
		default:
			return buf, false
		}
	}
	return buf, true
}

func appendName(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// countRegion tallies the keys of pure calls in the let's region and
// reports whether any occurs twice.
func (c *cser) countRegion(let *ast.Let) bool {
	dup := false
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.Call:
			key, ok := c.appendKey(c.key[:0], x)
			c.key = key
			if ok {
				slot, seen := c.slots[string(key)]
				if !seen {
					slot = len(c.counts)
					c.slots[string(key)] = slot
					c.counts = append(c.counts, 0)
					c.names = append(c.names, "")
				}
				c.counts[slot]++
				dup = dup || c.counts[slot] >= 2
			}
			visit(x.Fun)
			for _, a := range x.Args {
				visit(a)
			}
		case *ast.TupleExpr:
			for _, el := range x.Elems {
				visit(el)
			}
		case *ast.If:
			visit(x.Cond) // the test evaluates eagerly; the arms do not
		case *ast.Iterate:
			for _, iv := range x.Vars {
				visit(iv.Init) // initializers evaluate eagerly
			}
		case *ast.Let:
			// A nested let introduces scope; stop to keep hoisting simple.
		}
	}
	for _, b := range let.Binds {
		if b.Kind != ast.BindFunc {
			visit(b.Init)
		}
	}
	visit(let.Body)
	return dup
}

// replaceRegion applies replace to every region expression, recursing with
// the same boundaries as countRegion. It is copy-on-change.
func (c *cser) replaceRegion(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Call:
		if r, done := c.replace(x); done {
			return r
		}
		// The callee expression evaluates eagerly too — recurse into it,
		// mirroring countRegion. Skipping it would leave counted
		// occurrences (e.g. the test of a first-class conditional select
		// in function position) permanently irreplaceable, and the
		// fixpoint would mint a fresh alias bind for the same expression
		// every round instead of converging.
		fun := c.replaceRegion(x.Fun)
		if args, changed := ast.Map(x.Args, c.replaceRegion); changed || fun != x.Fun {
			return &ast.Call{P: x.P, Fun: fun, Args: args, Tail: x.Tail}
		}
		return x
	case *ast.TupleExpr:
		if elems, changed := ast.Map(x.Elems, c.replaceRegion); changed {
			return &ast.TupleExpr{P: x.P, Elems: elems}
		}
		return x
	case *ast.If:
		if cond := c.replaceRegion(x.Cond); cond != x.Cond {
			return &ast.If{P: x.P, Cond: cond, Then: x.Then, Else: x.Else}
		}
		return x
	case *ast.Iterate:
		vars, changed := ast.Map(x.Vars, func(iv *ast.IterVar) *ast.IterVar {
			return iv.With(c.replaceRegion(iv.Init), iv.Next)
		})
		if changed {
			return &ast.Iterate{P: x.P, Vars: vars, Cond: x.Cond, Result: x.Result}
		}
		return x
	default:
		return e
	}
}
