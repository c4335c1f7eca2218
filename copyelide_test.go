package delirium_test

import (
	"strings"
	"testing"

	delirium "repro"
	"repro/internal/compile"
	"repro/internal/jacobi"
	"repro/internal/retina"
	rt "repro/internal/runtime"
)

// The headline acceptance property of the memory plan: the two §5 workloads
// run with zero copy-on-write duplications under the plan, their planned
// output is bit-identical to the unplanned output at 1, 2, and 8 workers,
// and the elision/pool counters show the plan actually did something.

func TestJacobiCopyElision(t *testing.T) {
	cfg := jacobi.Config{N: 48, Tol: 1e-3, MaxSweeps: 200}
	ref := jacobi.Reference(cfg)
	for _, workers := range []int{1, 2, 8} {
		cfg.MemPlan = false
		base, _, err := jacobi.Run(cfg, rt.Config{Mode: rt.Real, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d unplanned: %v", workers, err)
		}
		cfg.MemPlan = true
		s, eng, err := jacobi.Run(cfg, rt.Config{Mode: rt.Real, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d planned: %v", workers, err)
		}
		if !jacobi.Matches(s, base) || !jacobi.Matches(s, ref) {
			t.Errorf("workers %d: planned solve diverged from the unplanned/reference state", workers)
		}
		st := eng.Stats()
		if st.Blocks.Copies != 0 {
			t.Errorf("workers %d: Copies = %d, want 0", workers, st.Blocks.Copies)
		}
		if st.ElidedReleases == 0 || st.PooledAllocs == 0 || st.CopiesAvoided == 0 {
			t.Errorf("workers %d: plan idle: elided=%d+%d pooled=%d inplace=%d",
				workers, st.ElidedRetains, st.ElidedReleases, st.PooledAllocs, st.CopiesAvoided)
		}
		if st.Blocks.Allocated-st.Blocks.Freed != 1 { // the result block stays live
			t.Errorf("workers %d: allocated %d freed %d", workers, st.Blocks.Allocated, st.Blocks.Freed)
		}
	}
}

func TestRetinaCopyElision(t *testing.T) {
	cfg := retina.DefaultConfig()
	cfg.W, cfg.H, cfg.Timesteps = 48, 48, 2
	ref := retina.Reference(cfg)
	for _, v := range []retina.Version{retina.V1, retina.V2} {
		for _, workers := range []int{1, 2, 8} {
			cfg.MemPlan = true
			s, eng, err := retina.Run(cfg, v, rt.Config{Mode: rt.Real, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers %d planned: %v", v, workers, err)
			}
			if !retina.Equal(s, ref) {
				t.Errorf("%s workers %d: planned scene diverged from the sequential reference", v, workers)
			}
			st := eng.Stats()
			if st.Blocks.Copies != 0 {
				t.Errorf("%s workers %d: Copies = %d, want 0", v, workers, st.Blocks.Copies)
			}
			if st.ElidedReleases == 0 || st.PooledAllocs == 0 || st.CopiesAvoided == 0 {
				t.Errorf("%s workers %d: plan idle: elided=%d+%d pooled=%d inplace=%d",
					v, workers, st.ElidedRetains, st.ElidedReleases, st.PooledAllocs, st.CopiesAvoided)
			}
		}
	}
}

// TestMemPlanReportAPI: the public compile surface exposes the plan report.
func TestMemPlanReportAPI(t *testing.T) {
	prog, err := delirium.Compile("t.dlr", "main() add(1, 2)", delirium.CompileOptions{MemPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	p := prog.MemPlan()
	if p == nil {
		t.Fatal("MemPlan() = nil with CompileOptions.MemPlan set")
	}
	if !strings.Contains(p.Report(), "memory plan:") {
		t.Errorf("report = %q", p.Report())
	}
	unplanned, err := delirium.Compile("t.dlr", "main() add(1, 2)", delirium.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if unplanned.MemPlan() != nil {
		t.Error("MemPlan() must be nil without the option")
	}
}

// TestDispatchMemPlanOverhead guards the unplanned dispatch path: compiling
// without a plan must leave no plan fact on the nodes, so no elision fires
// and no elision counter moves, and a run that frees no block keeps the
// stats line in its plain format. Recycling is the runtime's on every
// program; only the elisions are the plan's.
func TestDispatchMemPlanOverhead(t *testing.T) {
	src := `
main(n)
  iterate { i = 0, incr(i) } while lt(i, n), result i
`
	res, err := compile.Compile("spin.dlr", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemPlan != nil {
		t.Fatal("memory-plan report produced without the option")
	}
	for _, tmpl := range res.Program.Templates {
		for _, n := range tmpl.Nodes {
			if n.MemOwned || n.MemOwnedArgs != nil || n.MemTransferEnv {
				t.Fatalf("%s: node %d carries a plan fact without the option", tmpl.Name, n.ID)
			}
		}
	}
	eng := rt.New(res.Program, rt.Config{Mode: rt.Real, Workers: 2, MaxOps: 1_000_000})
	if _, err := eng.Run(delirium.Int(5000)); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.ElidedRetains != 0 || st.ElidedReleases != 0 || st.CopiesAvoided != 0 {
		t.Errorf("unplanned run moved plan counters: elided=%d+%d inplace=%d",
			st.ElidedRetains, st.ElidedReleases, st.CopiesAvoided)
	}
	if strings.Contains(st.String(), "elided") {
		t.Errorf("unplanned stats line changed format: %q", st.String())
	}
}
