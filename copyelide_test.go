package delirium_test

import (
	"testing"

	"repro/internal/jacobi"
	"repro/internal/retina"
	rt "repro/internal/runtime"
	"repro/internal/value"
)

// The two §5 workloads run with zero copy-on-write duplications: every
// destructive operator finds its block solely referenced and writes in
// place. Their output is bit-identical to the sequential reference at 1, 2,
// and 8 workers, blocks are recycled through the worker pools, and every
// block not reachable from the result is freed.

func TestJacobiZeroCopies(t *testing.T) {
	cfg := jacobi.Config{N: 48, Tol: 1e-3, MaxSweeps: 200}
	ref := jacobi.Reference(cfg)
	for _, workers := range []int{1, 2, 8} {
		s, eng, err := jacobi.Run(cfg, rt.Config{Mode: rt.Real, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !jacobi.Matches(s, ref) {
			t.Errorf("workers %d: solve diverged from the reference state", workers)
		}
		st := eng.Stats()
		if st.Blocks.Copies != 0 {
			t.Errorf("workers %d: Copies = %d, want 0", workers, st.Blocks.Copies)
		}
		if st.PooledAllocs == 0 {
			t.Errorf("workers %d: PooledAllocs = 0, want pool hits", workers)
		}
		if st.Blocks.Allocated-st.Blocks.Freed != 1 { // the result block stays live
			t.Errorf("workers %d: allocated %d freed %d", workers, st.Blocks.Allocated, st.Blocks.Freed)
		}
	}
}

func TestRetinaZeroCopies(t *testing.T) {
	cfg := retina.DefaultConfig()
	cfg.W, cfg.H, cfg.Timesteps = 48, 48, 2
	ref := retina.Reference(cfg)
	for _, v := range []retina.Version{retina.V1, retina.V2} {
		prog, err := retina.CompileProgram(cfg, v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		for _, workers := range []int{1, 2, 8} {
			eng := rt.New(prog, rt.Config{Mode: rt.Real, Workers: workers})
			out, err := eng.Run()
			if err != nil {
				t.Fatalf("%s workers %d: %v", v, workers, err)
			}
			s, err := retina.ExtractScene(out)
			if err != nil {
				t.Fatalf("%s workers %d: %v", v, workers, err)
			}
			if !retina.Equal(s, ref) {
				t.Errorf("%s workers %d: scene diverged from the sequential reference", v, workers)
			}
			st := eng.Stats()
			if st.Blocks.Copies != 0 {
				t.Errorf("%s workers %d: Copies = %d, want 0", v, workers, st.Blocks.Copies)
			}
			if st.PooledAllocs == 0 {
				t.Errorf("%s workers %d: PooledAllocs = 0, want pool hits", v, workers)
			}
			if live := int64(len(value.Blocks(out, nil))); st.Blocks.Allocated-st.Blocks.Freed != live {
				t.Errorf("%s workers %d: allocated %d freed %d live %d",
					v, workers, st.Blocks.Allocated, st.Blocks.Freed, live)
			}
		}
	}
}
