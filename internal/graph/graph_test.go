package graph

import (
	"strings"
	"testing"

	"repro/internal/macro"
	"repro/internal/operator"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/source"
	"repro/internal/value"
)

func build(t *testing.T, src string) *Program {
	t.Helper()
	var diags source.DiagList
	prog := parser.Parse("t.dlr", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags.Err())
	}
	info := sema.Analyze(macro.ExpandProgram(prog, &diags), operator.Builtins(), &diags)
	if diags.HasErrors() {
		t.Fatalf("analyze: %v", diags.Err())
	}
	g := Build(info, &diags)
	if diags.HasErrors() {
		t.Fatalf("build: %v", diags.Err())
	}
	return g
}

func kinds(t *Template) map[NodeKind]int {
	m := make(map[NodeKind]int)
	for _, n := range t.Nodes {
		m[n.Kind]++
	}
	return m
}

func TestBuildSimpleCall(t *testing.T) {
	g := build(t, "main() add(1, 2)")
	m := g.Main
	if m == nil {
		t.Fatal("main template missing")
	}
	k := kinds(m)
	if k[ConstNode] != 2 || k[OpNode] != 1 {
		t.Errorf("kinds = %v", k)
	}
	op := m.Nodes[m.Result]
	if op.Kind != OpNode || op.Name != "add" || op.NIn != 2 {
		t.Errorf("result node = %+v", op)
	}
	if op.Op == nil {
		t.Error("operator unresolved")
	}
}

func TestBuildParamsAndFanOut(t *testing.T) {
	g := build(t, "main(x) add(x, mul(x, x))")
	m := g.Main
	if m.NParams != 1 {
		t.Fatalf("NParams = %d", m.NParams)
	}
	param := m.Nodes[0]
	if param.Kind != ParamNode {
		t.Fatalf("node 0 = %v", param.Kind)
	}
	// x fans out to three ports: add port 0, mul ports 0 and 1.
	if len(param.Out) != 3 {
		t.Errorf("param fan-out = %d, want 3", len(param.Out))
	}
}

func TestBuildLetForwardReference(t *testing.T) {
	g := build(t, `
main()
  let a = incr(b)
      b = incr(1)
  in a
`)
	if err := g.Main.Validate(); err != nil {
		t.Fatal(err)
	}
	// Result is incr(b); its input chain reaches incr(1).
	res := g.Main.Nodes[g.Main.Result]
	if res.Kind != OpNode || res.Name != "incr" {
		t.Errorf("result = %+v", res)
	}
}

func TestBuildDetupleWithOperator(t *testing.T) {
	var diags source.DiagList
	prog := parser.Parse("t.dlr", `
main()
  let <a, b> = pair()
  in add(a, b)
`, &diags)
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{Name: "pair", Arity: 0, Fn: dummyFn})
	info := sema.Analyze(prog, reg, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	g := Build(info, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	k := kinds(g.Main)
	if k[DetupleNode] != 2 {
		t.Errorf("kinds = %v, want 2 detuple nodes", k)
	}
	for _, n := range g.Main.Nodes {
		if n.Kind == DetupleNode && (n.Index < 0 || n.Index > 1) {
			t.Errorf("detuple index = %d", n.Index)
		}
	}
}

func TestBuildConditional(t *testing.T) {
	g := build(t, "main(x) if lt(x, 0) then neg(x) else x")
	m := g.Main
	var cond *Node
	for _, n := range m.Nodes {
		if n.Kind == CondNode {
			cond = n
		}
	}
	if cond == nil {
		t.Fatal("cond node missing")
	}
	if cond.Then == nil || cond.Else == nil {
		t.Fatal("branches missing")
	}
	// Both branches share the free-name parameter list [x].
	if cond.Then.NParams != 1 || cond.Else.NParams != 1 {
		t.Errorf("branch params: then=%d else=%d", cond.Then.NParams, cond.Else.NParams)
	}
	// cond input 0 is the test; port 1 carries x.
	if cond.NIn != 2 {
		t.Errorf("cond NIn = %d, want 2", cond.NIn)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildFunctionCallWithCaptures(t *testing.T) {
	g := build(t, `
main(k)
  let addk(v) add(v, k)
  in addk(5)
`)
	var call *Node
	for _, n := range g.Main.Nodes {
		if n.Kind == CallNode {
			call = n
		}
	}
	if call == nil {
		t.Fatal("call node missing")
	}
	// One user argument plus one forwarded capture.
	if call.NIn != 2 {
		t.Errorf("call NIn = %d, want 2 (arg + capture)", call.NIn)
	}
	lifted := call.Callee
	if lifted == nil {
		t.Fatal("callee unlinked")
	}
	if lifted.NParams != 1 || lifted.NCaptures != 1 {
		t.Errorf("callee params=%d captures=%d", lifted.NParams, lifted.NCaptures)
	}
}

func TestBuildClosureCreation(t *testing.T) {
	g := build(t, `
double(x) mul(x, 2)
apply(f, v) f(v)
main() apply(double, 5)
`)
	var mk *Node
	for _, n := range g.Main.Nodes {
		if n.Kind == MakeClosureNode {
			mk = n
		}
	}
	if mk == nil {
		t.Fatal("make-closure node missing in main")
	}
	if mk.Callee == nil || mk.Callee.Name != "double" {
		t.Errorf("closure callee = %+v", mk.Callee)
	}
	applyT := g.Templates["apply"]
	var cc *Node
	for _, n := range applyT.Nodes {
		if n.Kind == CallClosureNode {
			cc = n
		}
	}
	if cc == nil {
		t.Fatal("call-closure node missing in apply")
	}
	if cc.NIn != 2 {
		t.Errorf("call-closure NIn = %d, want 2 (closure + arg)", cc.NIn)
	}
}

func TestBuildIterateLowering(t *testing.T) {
	g := build(t, `
main(n)
  iterate { i = 0, incr(i) } while lt(i, n), result i
`)
	// The iterate produced a hidden loop template.
	var loop *Template
	for name, tmpl := range g.Templates {
		if strings.Contains(name, "$loop") {
			loop = tmpl
		}
	}
	if loop == nil {
		t.Fatal("loop template missing")
	}
	if !loop.Recursive {
		t.Error("loop template must be recursive")
	}
	if loop.NParams != 1 || loop.NCaptures != 1 {
		t.Errorf("loop params=%d captures=%d, want 1 and 1 (i; n)", loop.NParams, loop.NCaptures)
	}
	// The loop's cond node's then-branch tail-calls the loop.
	var cond *Node
	for _, n := range loop.Nodes {
		if n.Kind == CondNode {
			cond = n
		}
	}
	if cond == nil {
		t.Fatal("loop cond missing")
	}
	tailCall := cond.Then.Nodes[cond.Then.Result]
	if tailCall.Kind != CallNode || !tailCall.Tail {
		t.Errorf("then-branch result = %+v, want tail call", tailCall)
	}
	if tailCall.Callee != loop {
		t.Error("tail call should target the loop template itself")
	}
	// The initial call from main is not a tail call.
	var initCall *Node
	for _, n := range g.Main.Nodes {
		if n.Kind == CallNode {
			initCall = n
		}
	}
	if initCall == nil || initCall.Tail {
		t.Errorf("initial loop call = %+v", initCall)
	}
}

// TestLinkNumbersTemplates checks that Link hands every template, branch
// subtemplates included, a distinct ID in [0, NumTemplates).
func TestLinkNumbersTemplates(t *testing.T) {
	g := build(t, `
main(n)
  if lt(n, 2)
    then n
    else iterate { i = 0, incr(i) } while lt(i, n), result i
`)
	seen := map[int]*Template{}
	var walk func(t0 *Template)
	walk = func(t0 *Template) {
		if prev, dup := seen[t0.ID]; dup {
			t.Errorf("templates %s and %s share ID %d", prev.Name, t0.Name, t0.ID)
		}
		seen[t0.ID] = t0
		if t0.ID < 0 || t0.ID >= g.NumTemplates {
			t.Errorf("template %s: ID %d outside [0, %d)", t0.Name, t0.ID, g.NumTemplates)
		}
		for _, n := range t0.Nodes {
			if n.Kind == CondNode {
				walk(n.Then)
				walk(n.Else)
			}
		}
	}
	for _, tmpl := range g.Templates {
		walk(tmpl)
	}
	// main with its two branches, the loop with its two.
	if len(seen) != g.NumTemplates || g.NumTemplates != 6 {
		t.Errorf("%d templates numbered, NumTemplates = %d, want 6 and 6", len(seen), g.NumTemplates)
	}
}

func TestBuildQueensValidates(t *testing.T) {
	var diags source.DiagList
	prog := parser.Parse("q.dlr", `
main()
  let board = empty_board()
  in show_solutions(do_it(board,1))
do_it(board,queen)
  let h1 = try(board,queen,1)
      h2 = try(board,queen,2)
  in merge(h1,h2)
try(board,queen,location)
  let new_board = add_queen(board,queen,location)
  in if is_valid(new_board)
      then if is_equal(queen,8)
            then new_board
            else do_it(new_board,incr(queen))
      else NULL
`, &diags)
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{Name: "empty_board", Arity: 0, Fn: dummyFn})
	reg.MustRegister(&operator.Operator{Name: "show_solutions", Arity: 1, Fn: dummyFn})
	reg.MustRegister(&operator.Operator{Name: "add_queen", Arity: 3, Fn: dummyFn})
	reg.MustRegister(&operator.Operator{Name: "is_valid", Arity: 1, Fn: dummyFn})
	info := sema.Analyze(prog, reg, &diags)
	g := Build(info, &diags)
	if diags.HasErrors() {
		t.Fatalf("queens build: %v", diags.Err())
	}
	if g.Templates["do_it"] == nil || !g.Templates["do_it"].Recursive {
		t.Error("do_it should be a recursive template")
	}
	if g.NodeCount() < 20 {
		t.Errorf("NodeCount = %d, implausibly small", g.NodeCount())
	}
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	// Unfed port.
	bad := &Template{Name: "bad", NParams: 0}
	bad.add(&Node{Kind: OpNode, Name: "x", NIn: 1, Op: &operator.Operator{Name: "x", Arity: 1, Fn: dummyFn}})
	bad.Result = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "fed 0 times") {
		t.Errorf("Validate = %v", err)
	}
	// Result out of range.
	bad2 := &Template{Name: "bad2", Result: 5}
	if err := bad2.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Validate = %v", err)
	}
	// Edge to missing node.
	bad3 := &Template{Name: "bad3"}
	bad3.add(&Node{Kind: ConstNode, Const: valueInt(1), Out: []Edge{{To: 9, Port: 0}}})
	bad3.Result = 0
	if err := bad3.Validate(); err == nil || !strings.Contains(err.Error(), "missing node") {
		t.Errorf("Validate = %v", err)
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	src := `
helper(a) mul(a, 3)
main(n)
  let x = helper(n)
  in iterate { i = x, incr(i) } while lt(i, 10), result i
`
	var diags source.DiagList
	prog := parser.Parse("t.dlr", src, &diags)
	info := sema.Analyze(macro.ExpandProgram(prog, &diags), operator.Builtins(), &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	seq := Build(info, &diags)

	// Parallel-style: per-function BuildFunc then merge + link.
	par := &Program{Templates: make(map[string]*Template), Registry: info.Registry}
	for _, name := range info.Order {
		for _, tmpl := range BuildFunc(info, info.Funcs[name].Decl, &diags) {
			par.Templates[tmpl.Name] = tmpl
		}
	}
	Link(par, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	if len(par.Templates) != len(seq.Templates) {
		t.Fatalf("template counts differ: %d vs %d", len(par.Templates), len(seq.Templates))
	}
	for name, st := range seq.Templates {
		pt, ok := par.Templates[name]
		if !ok {
			t.Fatalf("template %s missing from parallel build", name)
		}
		if len(pt.Nodes) != len(st.Nodes) || pt.Result != st.Result {
			t.Errorf("template %s differs: %d/%d nodes, result %d/%d",
				name, len(pt.Nodes), len(st.Nodes), pt.Result, st.Result)
		}
	}
}

func TestDotOutput(t *testing.T) {
	g := build(t, "main(x) if lt(x, 0) then neg(x) else add(x, 1)")
	dot := g.Dot()
	for _, want := range []string{"digraph delirium", "cluster_", "cond", "diamond", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
	single := DotTemplate(g.Main)
	if !strings.Contains(single, "digraph template") {
		t.Error("DotTemplate header missing")
	}
}

func TestNodeKindStrings(t *testing.T) {
	for k := ParamNode; k <= DetupleNode; k++ {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if !strings.Contains(NodeKind(99).String(), "99") {
		t.Error("unknown kind should embed value")
	}
}

func TestTemplateFuncRef(t *testing.T) {
	g := build(t, "f(a, b) add(a, b)\nmain() f(1, 2)")
	f := g.Templates["f"]
	if f.FuncName() != "f" || f.ParamCount() != 2 || f.NumArgs() != 2 {
		t.Errorf("FuncRef: %q %d %d", f.FuncName(), f.ParamCount(), f.NumArgs())
	}
}

func valueInt(n int64) value.Value { return value.Int(n) }

var dummyFn operator.Func = func(_ operator.Context, _ []value.Value) (value.Value, error) {
	return value.Null{}, nil
}

func TestMarkSpreadOnDecomposition(t *testing.T) {
	var diags source.DiagList
	prog := parser.Parse("t.dlr", `
main()
  let <a, b, c> = trio()
  in add(a, add(b, c))
`, &diags)
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{Name: "trio", Arity: 0, Fn: dummyFn})
	info := sema.Analyze(prog, reg, &diags)
	g := Build(info, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	var producer *Node
	detuples := 0
	var designee *Node
	for _, n := range g.Main.Nodes {
		switch n.Kind {
		case OpNode:
			if n.Name == "trio" {
				producer = n
			}
		case DetupleNode:
			detuples++
			if !n.SpreadConsumer {
				t.Errorf("detuple %d not marked SpreadConsumer", n.ID)
			}
			if n.CoveredIdx != nil {
				if designee != nil {
					t.Error("more than one designated releaser")
				}
				designee = n
			}
		}
	}
	if producer == nil || !producer.Spread {
		t.Fatalf("producer not marked Spread: %+v", producer)
	}
	if detuples != 3 {
		t.Errorf("detuples = %d, want 3", detuples)
	}
	if designee == nil || len(designee.CoveredIdx) != 3 {
		t.Fatalf("designee = %+v", designee)
	}
	for i, idx := range designee.CoveredIdx {
		if idx != i {
			t.Errorf("CoveredIdx = %v, want [0 1 2]", designee.CoveredIdx)
		}
	}
}

func TestNoSpreadWhenTupleAlsoUsedWhole(t *testing.T) {
	var diags source.DiagList
	prog := parser.Parse("t.dlr", `
main()
  let t = <1, 2>
      <a, b> = t
  in add(tuple_len(t), add(a, b))
`, &diags)
	info := sema.Analyze(prog, operator.Builtins(), &diags)
	g := Build(info, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	for _, n := range g.Main.Nodes {
		if n.Kind == TupleNode && n.Spread {
			t.Error("tuple with a non-detuple consumer must not be Spread")
		}
	}
}

func TestNoSpreadOnSingleDetuple(t *testing.T) {
	var diags source.DiagList
	prog := parser.Parse("t.dlr", `
main()
  let <a> = <5>
  in a
`, &diags)
	info := sema.Analyze(prog, operator.Builtins(), &diags)
	g := Build(info, &diags)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	for _, n := range g.Main.Nodes {
		if n.Spread {
			t.Error("single-consumer producer should use the normal transfer path")
		}
	}
}
