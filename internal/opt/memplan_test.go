package opt

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/macro"
	"repro/internal/operator"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/source"
	"repro/internal/value"
)

// planReg registers block-moving test operators: mk allocates a fresh
// block, use consumes one destructively, peek reads one, join merges two.
func planReg(t *testing.T) *operator.Registry {
	t.Helper()
	r := operator.NewRegistry(operator.Builtins())
	mk := func(ctx operator.Context, _ []value.Value) (value.Value, error) {
		return value.NewBlockStats(value.FloatVec{1}, ctx.BlockStats()), nil
	}
	passthrough := func(ctx operator.Context, args []value.Value) (value.Value, error) {
		return args[0], nil
	}
	r.MustRegister(&operator.Operator{Name: "mk", Arity: 0, Fresh: true, Fn: mk})
	r.MustRegister(&operator.Operator{Name: "use", Arity: 1, Destructive: []bool{true}, Fn: passthrough})
	r.MustRegister(&operator.Operator{Name: "peek", Arity: 1, Fn: passthrough})
	r.MustRegister(&operator.Operator{Name: "join", Arity: 2, Destructive: []bool{true, true}, Fresh: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			return args[0], nil
		}})
	return r
}

// plan compiles src against reg and runs the memory-plan pass.
func plan(t *testing.T, src string, reg *operator.Registry) (*graph.Program, *MemPlan) {
	t.Helper()
	if reg == nil {
		reg = planReg(t)
	}
	var diags source.DiagList
	prog := parser.Parse("t.dlr", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags.Err())
	}
	info := sema.Analyze(macro.ExpandProgram(prog, &diags), reg, &diags)
	if diags.HasErrors() {
		t.Fatalf("analyze: %v", diags.Err())
	}
	g := graph.Build(info, &diags)
	if diags.HasErrors() {
		t.Fatalf("build: %v", diags.Err())
	}
	return g, PlanMemory(g)
}

// node finds the first node running the named operator or callee.
func node(t *testing.T, g *graph.Program, tmpl *graph.Template, name string) *graph.Node {
	t.Helper()
	for _, n := range tmpl.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no node %q in template %s", name, tmpl.Name)
	return nil
}

func TestPlanFreshChainOwned(t *testing.T) {
	g, p := plan(t, "main() use(mk())", nil)
	mk := node(t, g, g.Main, "mk")
	if !mk.MemOwned {
		t.Fatal("mk output must be owned: Fresh with no inputs")
	}
	use := node(t, g, g.Main, "use")
	if len(use.MemOwnedArgs) == 0 || !use.MemOwnedArgs[0] {
		t.Fatal("use's port 0 must be owned: single consumer of an owned producer")
	}
	if p.InPlacePorts != 1 {
		t.Errorf("InPlacePorts = %d, want 1 (use is destructive on its owned port)", p.InPlacePorts)
	}
}

func TestPlanFanOutUnowned(t *testing.T) {
	g, _ := plan(t, `
main()
  let
    s = mk()
    a = use(s)
    b = peek(s)
  in join(a, b)
`, nil)
	use := node(t, g, g.Main, "use")
	if len(use.MemOwnedArgs) > 0 && use.MemOwnedArgs[0] {
		t.Fatal("use's port must not be owned: s fans out to two consumers")
	}
	peek := node(t, g, g.Main, "peek")
	if len(peek.MemOwnedArgs) > 0 && peek.MemOwnedArgs[0] {
		t.Fatal("peek's port must not be owned: s fans out to two consumers")
	}
}

func TestPlanMainParamsUnowned(t *testing.T) {
	g, _ := plan(t, "main(x) use(x)", nil)
	use := node(t, g, g.Main, "use")
	if len(use.MemOwnedArgs) > 0 && use.MemOwnedArgs[0] {
		t.Fatal("a value flowing from main's caller must not be owned")
	}
}

func TestPlanNonFreshOpNeedsOwnedInputs(t *testing.T) {
	// peek is neither Fresh nor fed owned input (main param): its output is
	// unowned, so use downstream gets nothing either.
	g, _ := plan(t, "main(x) use(peek(x))", nil)
	if node(t, g, g.Main, "peek").MemOwned {
		t.Fatal("peek's output must not be owned: its input is shared")
	}
	use := node(t, g, g.Main, "use")
	if len(use.MemOwnedArgs) > 0 && use.MemOwnedArgs[0] {
		t.Fatal("use's port must not be owned")
	}
	// With an owned input the same non-Fresh operator's output is owned.
	g2, _ := plan(t, "main() use(peek(mk()))", nil)
	if !node(t, g2, g2.Main, "peek").MemOwned {
		t.Fatal("peek's output must be owned when its only input is")
	}
}

func TestPlanInterproceduralCalls(t *testing.T) {
	// wrap is called once with an owned argument; its parameter, body, and
	// return stay owned, so the caller's use port is owned too.
	g, _ := plan(t, `
main() use(wrap(mk()))

wrap(s) use(s)
`, nil)
	wrap := g.Templates["wrap"]
	if wrap == nil {
		t.Fatal("missing template wrap")
	}
	inner := node(t, g, wrap, "use")
	if len(inner.MemOwnedArgs) == 0 || !inner.MemOwnedArgs[0] {
		t.Fatal("wrap's parameter must stay owned: its only call site passes an owned value")
	}
	outer := node(t, g, g.Main, "use")
	if len(outer.MemOwnedArgs) == 0 || !outer.MemOwnedArgs[0] {
		t.Fatal("the call's result must be owned: wrap returns an owned value")
	}

	// A second call site passing a shared value falsifies the parameter for
	// every caller — the meet over call sites.
	g2, _ := plan(t, `
main(x) join(wrap(mk()), wrap(x))

wrap(s) use(s)
`, nil)
	inner2 := node(t, g2, g2.Templates["wrap"], "use")
	if len(inner2.MemOwnedArgs) > 0 && inner2.MemOwnedArgs[0] {
		t.Fatal("wrap's parameter must be falsified by the shared call site")
	}
}

func TestPlanRecursionTerminatesAndConverges(t *testing.T) {
	_, p := plan(t, `
main(n) fib(n)

fib(n)
  if lt(n, 2)
    then n
    else add(fib(sub(n, 1)), fib(sub(n, 2)))
`, nil)
	if p.TotalNodes == 0 {
		t.Fatal("plan visited no nodes")
	}
}

func TestPlanClosureCalleeParamsUnowned(t *testing.T) {
	// A template reachable through a closure value must keep its parameters
	// unowned (the analysis does not track closure provenance), but every
	// closure call site still gets the environment transfer.
	g, p := plan(t, `
main(n) apply(pick(n), mk())

apply(f, x) f(x)

u1(v) use(v)

u2(v) use(mk())

pick(flag)
  if lt(flag, 1) then u1 else u2
`, nil)
	body := g.Templates["u1"]
	if body == nil {
		t.Fatalf("missing template u1 (have %v)", templateNames(g))
	}
	inner := node(t, g, body, "use")
	if len(inner.MemOwnedArgs) > 0 && inner.MemOwnedArgs[0] {
		t.Fatal("a closure-called template's parameters must be unowned")
	}
	if p.TransferEnvSites == 0 {
		t.Fatal("closure call sites must be marked for environment transfer")
	}
}

func templateNames(g *graph.Program) []string {
	var names []string
	for name := range g.Templates {
		names = append(names, name)
	}
	return names
}

func TestPlanReport(t *testing.T) {
	_, p := plan(t, "main() use(mk())", nil)
	rep := p.Report()
	for _, want := range []string{"memory plan:", "template main:", "use", "in-place [0]", "output owned"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
