package delirium_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/jacobi"
	"repro/internal/machine"
	"repro/internal/operator"
	"repro/internal/queens"
	"repro/internal/retina"
	"repro/internal/runtime"
	"repro/internal/value"
)

// The tests in this file were written for operator fusion, which ran
// single-consumer chains as one dispatch; fusion is gone, and they keep
// checking the same programs on the one dispatch path: bit-identical results
// at every worker count in both executors, on engines reused through Reset,
// and under seeded faults with retry.

// fusionWorkers are the worker counts every test here sweeps: serial, the
// smallest concurrent pool, and an oversubscribed one.
var fusionWorkers = []int{1, 2, 8}

// TestFusionQueensConsistency checks that n-queens finds the same solutions
// in the same order at every worker count in both executors, and that every
// run dispatches the same number of nodes.
func TestFusionQueensConsistency(t *testing.T) {
	const n = 6
	want, base, err := queens.Run(n, runtime.Config{Mode: runtime.Real, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantOps := base.Stats().OpsExecuted
	if wantOps == 0 {
		t.Fatal("reference run counted no dispatches")
	}
	for _, mode := range []runtime.Mode{runtime.Real, runtime.Simulated} {
		for _, workers := range fusionWorkers {
			sols, eng, err := queens.Run(n, runtime.Config{Mode: mode, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if len(sols) != len(want) {
				t.Fatalf("%v workers=%d: %d solutions, want %d", mode, workers, len(sols), len(want))
			}
			for i := range sols {
				if fmt.Sprint(sols[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("%v workers=%d: solution %d = %v, want %v", mode, workers, i, sols[i], want[i])
				}
			}
			if got := eng.Stats().OpsExecuted; got != wantOps {
				t.Errorf("%v workers=%d: %d dispatches, want %d", mode, workers, got, wantOps)
			}
		}
	}
}

// TestFusionJacobiConsistency checks the solver against its sequential
// reference at every worker count, and that its node executions surface as
// slices in the Chrome trace export.
func TestFusionJacobiConsistency(t *testing.T) {
	cfg := jacobi.Config{N: 24, Tol: 1e-2}
	ref := jacobi.Reference(cfg)
	for _, workers := range fusionWorkers {
		s, eng, err := jacobi.Run(cfg, runtime.Config{Mode: runtime.Real, Workers: workers, Trace: workers == 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !jacobi.Matches(s, ref) {
			t.Fatalf("workers=%d: solve diverged from reference (sweeps %d vs %d)",
				workers, s.Sweeps, ref.Sweeps)
		}
		if eng.Stats().OperatorsRun == 0 {
			t.Errorf("workers=%d: no operator executions recorded", workers)
		}
		if tr := eng.Trace(); tr != nil {
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), `"cat":"node","ph":"X"`) {
				t.Error("trace export misses node slices")
			}
		}
	}
}

// TestFusionRetinaConsistency checks the unbalanced retina against the
// sequential reference at every worker count in both executors, on an
// engine reused through Reset, and with seeded faults on two operators
// driving the retry machinery.
func TestFusionRetinaConsistency(t *testing.T) {
	cfg := retina.Config{W: 32, H: 32, K: 5, Slabs: 4, Timesteps: 2,
		TargetsPerQuarter: 8, TargetWork: 200, Seed: 77}
	ref := retina.Reference(cfg)
	reg, err := retina.Operators(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Compile("retina1.dlr", retina.Source(cfg, retina.V1), compile.Options{
		Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, out value.Value) {
		t.Helper()
		scene, err := retina.ExtractScene(out)
		if err != nil {
			t.Fatal(err)
		}
		if !retina.Equal(scene, ref) {
			t.Errorf("%s diverged from reference", what)
		}
	}
	for _, workers := range fusionWorkers {
		for _, mode := range []runtime.Mode{runtime.Simulated, runtime.Real} {
			rcfg := runtime.Config{Mode: mode, Workers: workers, MaxOps: 50_000_000}
			if mode == runtime.Simulated {
				rcfg.Machine = machine.CrayYMP()
			}
			eng := runtime.New(res.Program, rcfg)
			for run := 0; run < 2; run++ { // reuse leg: Reset must not perturb results
				if run > 0 {
					if err := eng.Reset(); err != nil {
						t.Fatalf("w%d %v: reset: %v", workers, mode, err)
					}
				}
				out, err := eng.Run()
				if err != nil {
					t.Fatalf("w%d %v run %d: %v", workers, mode, run, err)
				}
				check(fmt.Sprintf("w%d %v run %d", workers, mode, run), out)
			}
		}
	}

	// Fault leg: seeded chaos on two operators plus retry, 2 workers.
	eng := runtime.New(res.Program, runtime.Config{Mode: runtime.Real, Workers: 2, MaxOps: 50_000_000,
		Retry:  runtime.RetryPolicy{MaxAttempts: 3},
		Faults: runtime.SeededFaultPlan(7, []string{"convol_bite", "post_up"}, 8)})
	out, err := eng.Run()
	if err != nil {
		t.Fatalf("fault leg: %v", err)
	}
	if eng.Stats().FaultsInjected == 0 {
		t.Error("fault leg injected nothing")
	}
	check("fault leg", out)
}

// fusionFaultRegistry registers a fresh block producer and a destructive
// chain step, the shape that exercises retry mid-chain: vstep destroys its
// input (so retry needs the pristine snapshot), and an injected fault kills
// it between two other steps of the chain.
func fusionFaultRegistry() *operator.Registry {
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{
		Name: "vinit", Arity: 0, Retryable: true,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			return value.NewBlockStats(value.FloatVec{0}, ctx.BlockStats()), nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "vstep", Arity: 1, Destructive: []bool{true}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			blk, ok := args[0].(*value.Block)
			if !ok {
				return nil, fmt.Errorf("vstep: block required, got %s", args[0].Kind())
			}
			v := blk.Data().(value.FloatVec)
			v[0] = v[0]*1.000001 + 1
			ctx.Charge(1)
			return args[0], nil
		},
	})
	return reg
}

const fusionFaultSrc = `
main(n)
  iterate
  {
    i = 0, incr(i)
    s = vinit(), vstep(vstep(vstep(s)))
  }
  while lt(i, n), result s
`

// chainResult extracts the accumulated float from the vchain program's
// block result. value.Equal on blocks is pointer identity (the engine's
// sole-reference discipline), so bit-identity is checked on the payload.
func chainResult(t *testing.T, v value.Value) float64 {
	t.Helper()
	blk, ok := v.(*value.Block)
	if !ok {
		t.Fatalf("expected block result, got %s", v.Kind())
	}
	vec, ok := blk.Data().(value.FloatVec)
	if !ok || len(vec) != 1 {
		t.Fatalf("unexpected payload %T", blk.Data())
	}
	return vec[0]
}

// TestFusionFaultRetryConsistency is the composition test of a destructive
// chain and deterministic retry. A seeded fault plan kills vstep mid-chain;
// retry must re-execute from the pristine snapshot and the final block must
// match the fault-free serial result bit for bit at every worker count.
func TestFusionFaultRetryConsistency(t *testing.T) {
	reg := fusionFaultRegistry()
	res, err := compile.Compile("vchain.dlr", fusionFaultSrc, compile.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng := runtime.New(res.Program, runtime.Config{Mode: runtime.Real, Workers: 1})
	wantV, err := eng.Run(value.Int(20))
	if err != nil {
		t.Fatal(err)
	}
	want := chainResult(t, wantV)

	var faults int64
	for _, workers := range fusionWorkers {
		for seed := int64(1); seed <= 4; seed++ {
			e := runtime.New(res.Program, runtime.Config{
				Mode:    runtime.Real,
				Workers: workers,
				Retry:   runtime.RetryPolicy{MaxAttempts: 4},
				Faults:  runtime.SeededFaultPlan(seed, []string{"vstep"}, 60),
			})
			got, err := e.Run(value.Int(20))
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if gf := chainResult(t, got); gf != want {
				t.Errorf("workers=%d seed=%d: %v != fault-free %v", workers, seed, gf, want)
			}
			if e.Stats().Retries == 0 && e.Stats().FaultsInjected > 0 {
				t.Errorf("workers=%d seed=%d: faults fired but nothing retried", workers, seed)
			}
			faults += e.Stats().FaultsInjected
		}
	}
	if faults == 0 {
		t.Error("no seeded fault fired across the sweep")
	}
}
