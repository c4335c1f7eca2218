package delirium_test

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/runtime"
	"repro/internal/selfcomp"
	"repro/internal/value"
)

// TestCrossCuttingConsistency is the repository's broadest invariant: for a
// family of generated programs, the computed value is identical across
//
//   - optimization levels (none / local / full),
//   - compiler drivers (sequential / self-hosted on simulated and real
//     workers),
//   - executors (real / simulated), and
//   - worker counts,
//
// which is the paper's determinism guarantee (§8) composed with compiler
// correctness.
func TestCrossCuttingConsistency(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			src := compile.Generate(18, seed)
			var want value.Value

			runCfgs := []runtime.Config{
				{Mode: runtime.Real, Workers: 1, MaxOps: 20_000_000},
				{Mode: runtime.Real, Workers: 4, MaxOps: 20_000_000},
				{Mode: runtime.Simulated, Workers: 3, MaxOps: 20_000_000},
			}
			compileVariants := []compile.Options{
				{OptLevel: -1},
				{OptLevel: 1},
				{OptLevel: 2},
			}
			for ci, copts := range compileVariants {
				res, err := compile.Compile("gen.dlr", src, copts)
				if err != nil {
					t.Fatalf("compile variant %d: %v", ci, err)
				}
				for ri, rcfg := range runCfgs {
					eng := runtime.New(res.Program, rcfg)
					v, err := eng.Run()
					if err != nil {
						t.Fatalf("variant %d run %d: %v", ci, ri, err)
					}
					if want == nil {
						want = v
					} else if !value.Equal(v, want) {
						t.Errorf("variant %d run %d: %v, want %v", ci, ri, v, want)
					}
				}
			}

			// The self-hosted compiler agrees too, on simulated and on real
			// workers.
			for _, mode := range []runtime.Mode{runtime.Simulated, runtime.Real} {
				shc, err := selfcomp.Compile("gen.dlr", src, nil, mode, 3)
				if err != nil {
					t.Fatalf("selfcomp mode %d: %v", mode, err)
				}
				for ri, rcfg := range runCfgs {
					v, err := runtime.New(shc.Graph, rcfg).Run()
					if err != nil {
						t.Fatalf("selfcomp mode %d run %d: %v", mode, ri, err)
					}
					if !value.Equal(v, want) {
						t.Errorf("selfcomp mode %d run %d: %v, want %v", mode, ri, v, want)
					}
				}
			}
		})
	}
}
