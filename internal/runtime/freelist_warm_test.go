package runtime_test

import (
	goruntime "runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/queens"
	"repro/internal/retina"
	"repro/internal/runtime"
)

// TestFreeListWarmRunsAllocateNone runs warm two-worker engines of queens7
// (fused, as the queens_fine benchmark compiles it) and the balanced retina
// model, forcing two garbage collections before every measured run. The
// free lists hold their activations strongly, so a collection takes none of
// them: once warm, a run allocates no activation.
func TestFreeListWarmRunsAllocateNone(t *testing.T) {
	rcfg := retina.Config{W: 64, H: 64, K: 5, Slabs: 4, Timesteps: 1,
		TargetsPerQuarter: 16, TargetWork: 400, MemPlan: true, Seed: 1990}
	reg, err := retina.Operators(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, file, src string
		opts            compile.Options
	}{
		{"queens7", "queens7.dlr", queens.Program(7), compile.Options{Registry: queens.Operators(), Fuse: true}},
		{"retina", "retina-V2.dlr", retina.Source(rcfg, retina.V2), compile.Options{Registry: reg, MemPlan: true}},
	} {
		res, err := compile.Compile(c.file, c.src, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		warmRunsAllocateNone(t, c.name, res.Program)
	}
}

func warmRunsAllocateNone(t *testing.T, name string, prog *graph.Program) {
	t.Helper()
	const warm, runs = 20, 30
	e := runtime.New(prog, runtime.Config{Workers: 2})
	var allocated, reused int64
	for i := 0; i < warm+runs; i++ {
		if i >= warm {
			goruntime.GC()
			goruntime.GC()
		}
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: run %d: %v", name, i, err)
		}
		if i >= warm {
			allocated += e.Stats().ActivationsAllocated
			reused += e.Stats().ActivationsReused
		}
	}
	if allocated != 0 {
		t.Errorf("%s: %d warm runs across forced collections allocated %d activations (reused %d)",
			name, runs, allocated, reused)
	}
}
