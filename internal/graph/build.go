package graph

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/source"
	"repro/internal/value"
)

// Build converts every analyzed function into a linked template program
// (the Graph Conversion pass of Table 1). Iteration constructs are lowered
// here into hidden tail-recursive loop templates (§3 construct 5).
func Build(info *sema.Info, diags *source.DiagList) *Program {
	prog := &Program{Templates: make(map[string]*Template), Registry: info.Registry}
	for _, name := range info.Order {
		for _, t := range BuildFunc(info, info.Funcs[name].Decl, diags) {
			prog.Templates[t.Name] = t
		}
	}
	Link(prog, diags)
	return prog
}

// BuildFunc converts a single function, returning its template followed by
// any loop templates generated for its iterate expressions. It is the unit
// of work of the parallel graph-conversion pass; the results are merged and
// linked afterwards.
func BuildFunc(info *sema.Info, decl *ast.FuncDecl, diags *source.DiagList) []*Template {
	loopCount := 0
	var extra []*Template
	t := &Template{
		Name:      decl.Name,
		NParams:   len(decl.Params),
		NCaptures: len(decl.Captures),
		Recursive: decl.Recursive,
	}
	b := &builder{info: info, tmpl: t, fname: decl.Name, env: make(map[string]int),
		loopCount: &loopCount, extra: &extra, diags: diags}
	for i, p := range decl.Params {
		b.env[p] = t.add(&Node{Kind: ParamNode, Name: p, Index: i, Pos: decl.P})
	}
	for i, c := range decl.Captures {
		b.env[c] = t.add(&Node{Kind: ParamNode, Name: c, Index: len(decl.Params) + i, Pos: decl.P})
	}
	t.Result = b.buildExpr(decl.Body)
	return append([]*Template{t}, extra...)
}

// Link resolves callee names to template pointers in every node, including
// branch subtemplates, records the program's smallest operator timeout,
// numbers the templates (Number), and validates the result. Call after all
// templates (from sequential Build or merged parallel workers) are
// registered.
func Link(prog *Program, diags *source.DiagList) {
	var linkTemplate func(t *Template)
	linkTemplate = func(t *Template) {
		for _, n := range t.Nodes {
			switch n.Kind {
			case CallNode, MakeClosureNode:
				callee, ok := prog.Templates[n.Name]
				if !ok {
					diags.Errorf(n.Pos, "internal: call to unknown template %s", n.Name)
					continue
				}
				n.Callee = callee
			case OpNode:
				if l := n.Op.Timeout; l > 0 && (prog.OpTimeout == 0 || l < prog.OpTimeout) {
					prog.OpTimeout = l
				}
			case CondNode:
				linkTemplate(n.Then)
				linkTemplate(n.Else)
			}
		}
		markSpread(t)
	}
	for _, t := range prog.Templates {
		linkTemplate(t)
	}
	if m, ok := prog.Templates["main"]; ok {
		prog.Main = m
	}
	Number(prog)
	for _, name := range prog.names() {
		if err := prog.Templates[name].Validate(); err != nil {
			diags.Errorf(source.Pos{}, "internal: %v", err)
		}
	}
}

// markSpread finds multiple-value decompositions compiled as a producer
// feeding only DetupleNodes with distinct indices, and marks them for the
// runtime's ownership-splitting fast path (see Node.Spread). The consumer
// with the lowest id releases any element no sibling extracts.
func markSpread(t *Template) {
	for _, n := range t.Nodes {
		if n.ID == t.Result || len(n.Out) < 2 {
			continue
		}
		seen := make(map[int]bool, len(n.Out))
		lowest := -1
		ok := true
		for _, e := range n.Out {
			c := t.Nodes[e.To]
			if c.Kind != DetupleNode || e.Port != 0 || seen[c.Index] {
				ok = false
				break
			}
			seen[c.Index] = true
			if lowest == -1 || e.To < lowest {
				lowest = e.To
			}
		}
		if !ok {
			continue
		}
		n.Spread = true
		covered := make([]int, 0, len(seen))
		for idx := range seen {
			covered = append(covered, idx)
		}
		sort.Ints(covered)
		for _, e := range n.Out {
			t.Nodes[e.To].SpreadConsumer = true
		}
		t.Nodes[lowest].CoveredIdx = covered
	}
}

type builder struct {
	info      *sema.Info
	tmpl      *Template
	fname     string
	env       map[string]int // unique name -> producing node id
	loopCount *int
	extra     *[]*Template
	diags     *source.DiagList
}

// node creates a node fed by the given producers, wiring one edge per port.
func (b *builder) node(n *Node, inputs []int) int {
	n.NIn = len(inputs)
	id := b.tmpl.add(n)
	for port, from := range inputs {
		b.tmpl.connect(from, id, port)
	}
	return id
}

// lookup resolves a local name to its producing node.
func (b *builder) lookup(name string, pos source.Pos) int {
	if id, ok := b.env[name]; ok {
		return id
	}
	b.diags.Errorf(pos, "internal: name %s not in graph environment of %s", name, b.fname)
	// Recover with a NULL constant so later validation still runs.
	return b.tmpl.add(&Node{Kind: ConstNode, Name: "error", Const: value.Null{}, Pos: pos})
}

// buildExpr emits nodes for e and returns the producing node id.
func (b *builder) buildExpr(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.IntLit:
		return b.tmpl.add(&Node{Kind: ConstNode, Const: value.Int(x.Val), Pos: x.P})
	case *ast.FloatLit:
		return b.tmpl.add(&Node{Kind: ConstNode, Const: value.Float(x.Val), Pos: x.P})
	case *ast.StrLit:
		return b.tmpl.add(&Node{Kind: ConstNode, Const: value.Str(x.Val), Pos: x.P})
	case *ast.NullLit:
		return b.tmpl.add(&Node{Kind: ConstNode, Const: value.Null{}, Pos: x.P})
	case *ast.Ident:
		return b.buildIdent(x)
	case *ast.Call:
		return b.buildCall(x)
	case *ast.TupleExpr:
		inputs := make([]int, len(x.Elems))
		for i, el := range x.Elems {
			inputs[i] = b.buildExpr(el)
		}
		return b.node(&Node{Kind: TupleNode, Name: "tuple", Pos: x.P}, inputs)
	case *ast.Let:
		return b.buildLet(x)
	case *ast.If:
		return b.buildIf(x)
	case *ast.Iterate:
		return b.buildIterate(x)
	default:
		b.diags.Errorf(e.Pos(), "internal: cannot convert %T to graph", e)
		return b.tmpl.add(&Node{Kind: ConstNode, Name: "error", Const: value.Null{}, Pos: e.Pos()})
	}
}

func (b *builder) buildIdent(id *ast.Ident) int {
	switch id.Ref {
	case ast.RefFunc:
		// First-class use: build a closure over the callee's captures.
		f, ok := b.info.Funcs[id.Name]
		if !ok {
			b.diags.Errorf(id.P, "internal: unknown function %s", id.Name)
			return b.tmpl.add(&Node{Kind: ConstNode, Name: "error", Const: value.Null{}, Pos: id.P})
		}
		inputs := make([]int, len(f.Decl.Captures))
		for i, c := range f.Decl.Captures {
			inputs[i] = b.lookup(c, id.P)
		}
		return b.node(&Node{Kind: MakeClosureNode, Name: id.Name, Pos: id.P}, inputs)
	case ast.RefOperator:
		b.diags.Errorf(id.P, "internal: operator %s used as value survived analysis", id.Name)
		return b.tmpl.add(&Node{Kind: ConstNode, Name: "error", Const: value.Null{}, Pos: id.P})
	default:
		return b.lookup(id.Name, id.P)
	}
}

func (b *builder) buildCall(call *ast.Call) int {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Ref {
		case ast.RefOperator:
			op, ok := b.info.Registry.Lookup(id.Name)
			if !ok {
				b.diags.Errorf(id.P, "internal: operator %s vanished from registry", id.Name)
				return b.tmpl.add(&Node{Kind: ConstNode, Name: "error", Const: value.Null{}, Pos: id.P})
			}
			inputs := make([]int, len(call.Args))
			for i, a := range call.Args {
				inputs[i] = b.buildExpr(a)
			}
			return b.node(&Node{Kind: OpNode, Name: id.Name, Op: op, Pos: call.P}, inputs)
		case ast.RefFunc:
			f, ok := b.info.Funcs[id.Name]
			if !ok {
				b.diags.Errorf(id.P, "internal: unknown function %s", id.Name)
				return b.tmpl.add(&Node{Kind: ConstNode, Name: "error", Const: value.Null{}, Pos: id.P})
			}
			inputs := make([]int, 0, len(call.Args)+len(f.Decl.Captures))
			for _, a := range call.Args {
				inputs = append(inputs, b.buildExpr(a))
			}
			for _, c := range f.Decl.Captures {
				inputs = append(inputs, b.lookup(c, call.P))
			}
			return b.node(&Node{Kind: CallNode, Name: id.Name, Tail: call.Tail, Pos: call.P}, inputs)
		}
	}
	// Dynamic application through a closure value.
	inputs := make([]int, 0, len(call.Args)+1)
	inputs = append(inputs, b.buildExpr(call.Fun))
	for _, a := range call.Args {
		inputs = append(inputs, b.buildExpr(a))
	}
	return b.node(&Node{Kind: CallClosureNode, Name: "call-closure", Tail: call.Tail, Pos: call.P}, inputs)
}

// buildLet emits bindings in dependency order (letrec allows textual
// forward references; sema has rejected cycles) and then the body.
func (b *builder) buildLet(let *ast.Let) int {
	type bindInfo struct {
		bind *ast.Bind
		deps []int
	}
	owner := make(map[string]int)
	var vals []*bindInfo
	for _, bd := range let.Binds {
		if bd.Kind == ast.BindFunc {
			continue // lifted; closure creation happens at use sites
		}
		bi := &bindInfo{bind: bd}
		for _, n := range bd.Names {
			owner[n] = len(vals)
		}
		vals = append(vals, bi)
	}
	for _, bi := range vals {
		for _, n := range sema.FreeNames(b.info, []ast.Expr{bi.bind.Init}, nil) {
			if j, ok := owner[n]; ok {
				bi.deps = append(bi.deps, j)
			}
		}
	}
	built := make([]bool, len(vals))
	var emit func(i int)
	emit = func(i int) {
		if built[i] {
			return
		}
		built[i] = true // sema guarantees acyclicity; pre-marking is safe
		for _, j := range vals[i].deps {
			emit(j)
		}
		bd := vals[i].bind
		src := b.buildExpr(bd.Init)
		switch bd.Kind {
		case ast.BindValue:
			b.env[bd.Names[0]] = src
		case ast.BindTuple:
			for k, n := range bd.Names {
				b.env[n] = b.node(&Node{Kind: DetupleNode, Name: n, Index: k, Pos: bd.P}, []int{src})
			}
		}
	}
	for i := range vals {
		emit(i)
	}
	return b.buildExpr(let.Body)
}

// buildIf compiles a conditional into a CondNode whose branches are
// anonymous subtemplates parameterized by their free names. The test and
// the branch inputs evaluate eagerly; the chosen branch's work is deferred
// until the node fires (§8: "the topology itself supports conditional
// expression evaluation").
func (b *builder) buildIf(ifx *ast.If) int {
	cond := b.buildExpr(ifx.Cond)
	frees := sema.FreeNames(b.info, []ast.Expr{ifx.Then, ifx.Else}, nil)
	inputs := make([]int, 0, len(frees)+1)
	inputs = append(inputs, cond)
	for _, n := range frees {
		inputs = append(inputs, b.lookup(n, ifx.P))
	}
	thenT := b.buildBranch(ifx.Then, frees, "then")
	elseT := b.buildBranch(ifx.Else, frees, "else")
	return b.node(&Node{Kind: CondNode, Name: "if", Then: thenT, Else: elseT, Pos: ifx.P}, inputs)
}

// buildBranch compiles one conditional arm as a subtemplate whose
// parameters are the (shared) free-name list.
func (b *builder) buildBranch(body ast.Expr, frees []string, label string) *Template {
	t := &Template{
		Name:    fmt.Sprintf("%s$%s@%d", b.fname, label, len(b.tmpl.Nodes)),
		NParams: len(frees),
	}
	nb := &builder{info: b.info, tmpl: t, fname: b.fname, env: make(map[string]int, len(frees)),
		loopCount: b.loopCount, extra: b.extra, diags: b.diags}
	for i, n := range frees {
		nb.env[n] = t.add(&Node{Kind: ParamNode, Name: n, Index: i, Pos: body.Pos()})
	}
	t.Result = nb.buildExpr(body)
	return t
}

// buildIterate lowers iteration to a hidden tail-recursive loop template:
//
//	L(v1..vn, caps...):
//	    n1..nn   := Next expressions over v1..vn
//	    t        := Cond over n1..nn
//	    if t then L(n1..nn, caps...)   -- tail call: activation reuse
//	         else Result over n1..nn
//
// and emits the initial call L(init1..initn, caps...).
func (b *builder) buildIterate(it *ast.Iterate) int {
	*b.loopCount++
	loopName := fmt.Sprintf("%s$loop%d", b.fname, *b.loopCount)

	varNames := make([]string, len(it.Vars))
	for i, iv := range it.Vars {
		varNames[i] = iv.Name
	}
	bodyExprs := make([]ast.Expr, 0, len(it.Vars)+2)
	for _, iv := range it.Vars {
		bodyExprs = append(bodyExprs, iv.Next)
	}
	bodyExprs = append(bodyExprs, it.Cond, it.Result)
	caps := sema.FreeNames(b.info, bodyExprs, varNames)

	loop := &Template{
		Name:      loopName,
		NParams:   len(it.Vars),
		NCaptures: len(caps),
		Recursive: true,
	}
	lb := &builder{info: b.info, tmpl: loop, fname: loopName, env: make(map[string]int),
		loopCount: b.loopCount, extra: b.extra, diags: b.diags}
	for i, v := range varNames {
		lb.env[v] = loop.add(&Node{Kind: ParamNode, Name: v, Index: i, Pos: it.P})
	}
	capBase := len(varNames)
	for i, c := range caps {
		lb.env[c] = loop.add(&Node{Kind: ParamNode, Name: c, Index: capBase + i, Pos: it.P})
	}

	// Next values over the current variables.
	nexts := make([]int, len(it.Vars))
	for i, iv := range it.Vars {
		nexts[i] = lb.buildExpr(iv.Next)
	}
	// Rebind loop variables to the new values for cond and result.
	for i, v := range varNames {
		lb.env[v] = nexts[i]
	}
	cond := lb.buildExpr(it.Cond)

	// Both branches receive the new variables plus the captures.
	branchNames := append(append([]string(nil), varNames...), caps...)
	inputs := make([]int, 0, len(branchNames)+1)
	inputs = append(inputs, cond)
	for _, n := range branchNames {
		inputs = append(inputs, lb.env[n])
	}

	// then: tail-call the loop with every branch parameter forwarded.
	thenT := &Template{Name: loopName + "$again", NParams: len(branchNames)}
	targs := make([]int, len(branchNames))
	for i, n := range branchNames {
		targs[i] = thenT.add(&Node{Kind: ParamNode, Name: n, Index: i, Pos: it.P})
	}
	tb := &builder{info: b.info, tmpl: thenT, fname: loopName, env: nil,
		loopCount: b.loopCount, extra: b.extra, diags: b.diags}
	thenT.Result = tb.node(&Node{Kind: CallNode, Name: loopName, Tail: true, Pos: it.P}, targs)

	// else: evaluate the result expression.
	elseT := b.buildBranchIn(lb, it.Result, branchNames, loopName+"$done")
	loop.Result = lb.node(&Node{Kind: CondNode, Name: "while", Then: thenT, Else: elseT, Pos: it.P}, inputs)
	*b.extra = append(*b.extra, loop)

	// Initial call in the enclosing template.
	initInputs := make([]int, 0, len(it.Vars)+len(caps))
	for _, iv := range it.Vars {
		initInputs = append(initInputs, b.buildExpr(iv.Init))
	}
	for _, c := range caps {
		initInputs = append(initInputs, b.lookup(c, it.P))
	}
	return b.node(&Node{Kind: CallNode, Name: loopName, Pos: it.P}, initInputs)
}

// buildBranchIn compiles body as a subtemplate parameterized by names, in
// the context of the loop builder lb.
func (b *builder) buildBranchIn(lb *builder, body ast.Expr, names []string, label string) *Template {
	t := &Template{Name: label, NParams: len(names)}
	nb := &builder{info: lb.info, tmpl: t, fname: lb.fname, env: make(map[string]int, len(names)),
		loopCount: lb.loopCount, extra: lb.extra, diags: lb.diags}
	for i, n := range names {
		nb.env[n] = t.add(&Node{Kind: ParamNode, Name: n, Index: i, Pos: body.Pos()})
	}
	t.Result = nb.buildExpr(body)
	return t
}
