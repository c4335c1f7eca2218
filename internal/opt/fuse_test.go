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

// fuseReg registers block-moving test operators: mk allocates a fresh
// block, peek reads one, join merges two destructively.
func fuseReg() *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())
	passthrough := func(ctx operator.Context, args []value.Value) (value.Value, error) {
		return args[0], nil
	}
	r.MustRegister(&operator.Operator{Name: "mk", Arity: 0,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			return value.NewBlockStats(value.FloatVec{1}, ctx.BlockStats()), nil
		}})
	r.MustRegister(&operator.Operator{Name: "peek", Arity: 1, Fn: passthrough})
	r.MustRegister(&operator.Operator{Name: "join", Arity: 2, Destructive: []bool{true, true}, Fn: passthrough})
	return r
}

// fuse compiles src against fuseReg through graph.Build and runs the fusion
// pass over it.
func fuse(t *testing.T, src string) (*graph.Program, *FusePlan) {
	t.Helper()
	var diags source.DiagList
	prog := parser.Parse("t.dlr", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags.Err())
	}
	info := sema.Analyze(macro.ExpandProgram(prog, &diags), fuseReg(), &diags)
	if diags.HasErrors() {
		t.Fatalf("analyze: %v", diags.Err())
	}
	g := graph.Build(info, &diags)
	if diags.HasErrors() {
		t.Fatalf("build: %v", diags.Err())
	}
	return g, FuseGraph(g)
}

func TestFuseChain(t *testing.T) {
	g, p := fuse(t, "main(x) peek(peek(peek(x)))")
	if !g.Fused {
		t.Fatal("Fused not set on program")
	}
	if p.Clusters != 1 || p.FusedNodes != 3 || p.DispatchesSaved != 2 {
		t.Fatalf("chain of three peeks: got %d clusters, %d fused, %d saved; want 1/3/2",
			p.Clusters, p.FusedNodes, p.DispatchesSaved)
	}
	c := g.Main.Clusters[0]
	if len(c.Nodes) != 3 {
		t.Fatalf("cluster members = %v, want 3 peeks", c.Nodes)
	}
	if c.ExtIn != 1 {
		t.Fatalf("ExtIn = %d, want 1 (the param feeding the head)", c.ExtIn)
	}
	head := g.Main.Nodes[c.Head]
	if head.FuseCluster != c {
		t.Fatal("head must carry the cluster pointer")
	}
	for i, id := range c.Nodes {
		n := g.Main.Nodes[id]
		if !n.Fused || n.FuseHead != c.Head {
			t.Fatalf("member n%d not stamped with head %d", id, c.Head)
		}
		wantInternal := i < len(c.Nodes)-1
		if n.FuseInternalOut != wantInternal {
			t.Fatalf("member n%d FuseInternalOut = %v, want %v", id, n.FuseInternalOut, wantInternal)
		}
		if id != c.Head && n.FuseCluster != nil {
			t.Fatalf("non-head n%d must not carry a cluster pointer", id)
		}
	}
}

func TestFuseDiamondStaysParallel(t *testing.T) {
	// Two independent peeks feeding a join: fusing either branch into the
	// join would serialize the other branch behind it, so the pass must
	// leave the diamond alone.
	_, p := fuse(t, "main(x) join(peek(x), peek(x))")
	if p.Clusters != 0 {
		t.Fatalf("diamond fused into %d clusters; fusion must preserve the fork", p.Clusters)
	}
}

func TestFuseChainIntoJoinWithParamSide(t *testing.T) {
	// join's second input is the parameter, which is present before any
	// node runs — the delay-free rule admits the join as the chain's tail.
	g, p := fuse(t, "main(x) join(peek(peek(x)), x)")
	if p.Clusters != 1 {
		t.Fatalf("got %d clusters, want 1", p.Clusters)
	}
	c := g.Main.Clusters[0]
	if len(c.Nodes) != 3 {
		t.Fatalf("cluster members = %v, want peek -> peek -> join", c.Nodes)
	}
	tail := g.Main.Nodes[c.Nodes[2]]
	if tail.Name != "join" {
		t.Fatalf("tail = %s, want join", tail.Name)
	}
}

func TestFuseAncestorSideInput(t *testing.T) {
	// mk fans out to peek and join, so mk itself cannot fuse — but peek's
	// chain may absorb the join: the join's side input (mk) is an ancestor
	// of the chain head (peek), so it is already delivered by the time the
	// head's gate opens. The delay-free rule admits the join as tail.
	g, p := fuse(t, `
main()
  let
    a = mk()
  in join(peek(a), a)
`)
	var joined bool
	for _, c := range g.Main.Clusters {
		for _, id := range c.Nodes {
			if g.Main.Nodes[id].Name == "join" {
				joined = true
			}
		}
	}
	if !joined {
		t.Fatalf("join not fused despite ancestor side input; plan:\n%s", p.Report())
	}
}

func TestFuseBLevelMonotoneAlongChain(t *testing.T) {
	g, p := fuse(t, "main(x) peek(peek(peek(x)))")
	c := g.Main.Clusters[0]
	for i := 1; i < len(c.Nodes); i++ {
		prev, cur := g.Main.Nodes[c.Nodes[i-1]], g.Main.Nodes[c.Nodes[i]]
		// Every operator weighs one unit, so each peek adds exactly one.
		if prev.BLevel != cur.BLevel+1 {
			t.Fatalf("BLevel must drop by one unit along the chain: n%d=%d, n%d=%d",
				prev.ID, prev.BLevel, cur.ID, cur.BLevel)
		}
	}
	var top int64
	for _, nd := range g.Main.Nodes {
		if nd.BLevel > top {
			top = nd.BLevel
		}
	}
	if crit := p.Templates[len(p.Templates)-1].CritLen; crit != top {
		t.Fatalf("main's critical path = %d, want the top bottom level %d", crit, top)
	}
}

func TestFuseReport(t *testing.T) {
	_, p := fuse(t, "main(x) peek(peek(x))")
	r := p.Report()
	if !strings.Contains(r, "1 clusters") || !strings.Contains(r, "unit weights") {
		t.Fatalf("report missing summary line:\n%s", r)
	}
	if !strings.Contains(r, "peek -> peek") {
		t.Fatalf("report missing member chain:\n%s", r)
	}
}
