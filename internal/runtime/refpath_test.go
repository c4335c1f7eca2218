package runtime

import (
	"errors"
	"testing"

	"repro/internal/value"
)

// The tests below keep the names they had when a static memory plan ran
// before these programs; the plan is gone, and they now hold the runtime's
// one reference-count path to the same properties: the value of the serial
// run at every worker count and in both modes, retries that stay invisible
// in the output, and failed runs that free every block.

// TestPlannedMatchesUnplanned: for every program, worker count, and executor
// mode, a run produces a value bit-identical to the one-worker run and
// frees every block not reachable from its result.
func TestPlannedMatchesUnplanned(t *testing.T) {
	programs := []struct {
		name string
		src  string
		arg  value.Value
	}{
		{"loop", loopBlocks, value.Int(50)},
		{"pooled", pooledLoop, value.Int(50)},
		{"closure-env", closureEnvBlocks, value.Int(3)},
		{"contended", contendedBlocks, nil},
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			var args []value.Value
			if p.arg != nil {
				args = append(args, p.arg)
			}
			for _, mode := range []Mode{Real, Simulated} {
				g := compile(t, p.src, poolOps())
				want, err := New(g, Config{Mode: mode, Workers: 1, MaxOps: 1_000_000}).Run(args...)
				if err != nil {
					t.Fatalf("mode %v serial: %v", mode, err)
				}
				for _, workers := range []int{1, 2, 8} {
					e := New(g, Config{Mode: mode, Workers: workers, MaxOps: 1_000_000})
					got, err := e.Run(args...)
					if err != nil {
						t.Fatalf("mode %v workers %d: %v", mode, workers, err)
					}
					if got != want {
						t.Errorf("mode %v workers %d: %v != serial %v", mode, workers, got, want)
					}
					st := e.Stats()
					live := int64(len(value.Blocks(got, nil)))
					if st.Blocks.Allocated-st.Blocks.Freed != live {
						t.Errorf("mode %v workers %d: allocated %d freed %d live %d",
							mode, workers, st.Blocks.Allocated, st.Blocks.Freed, live)
					}
				}
			}
		})
	}
}

// TestPlannedFaultRetryDeterministic: snapshots deep-copy the pristine
// inputs of a destructive retryable operator, the fault is invisible in the
// output, and nothing leaks.
func TestPlannedFaultRetryDeterministic(t *testing.T) {
	for _, mode := range []Mode{Real, Simulated} {
		for _, workers := range []int{1, 2, 8} {
			g := compile(t, contendedBlocks, poolOps())
			e := New(g, Config{Mode: mode, Workers: workers, MaxOps: 100000,
				Retry:  RetryPolicy{MaxAttempts: 3},
				Faults: KillOnce(FaultError, "rfill"),
			})
			v, err := e.Run()
			if err != nil {
				t.Fatalf("mode %v workers %d: %v", mode, workers, err)
			}
			if v != value.Float(48) {
				t.Errorf("mode %v workers %d: result = %v, want 48", mode, workers, v)
			}
			st := e.Stats()
			if st.SnapshotCopies == 0 {
				t.Errorf("mode %v workers %d: retry snapshots must deep-copy", mode, workers)
			}
			live := int64(len(value.Blocks(v, nil)))
			if st.Blocks.Allocated-st.Blocks.Freed != live {
				t.Errorf("mode %v workers %d: allocated %d freed %d live %d",
					mode, workers, st.Blocks.Allocated, st.Blocks.Freed, live)
			}
		}
	}
}

// TestPlannedSeededFaultRetry drives a loop whose blocks cycle through the
// worker's pool through a seeded fault schedule at several worker counts:
// faults fire, every recovered run equals the fault-free value, and every
// block is freed.
func TestPlannedSeededFaultRetry(t *testing.T) {
	const retryLoop = `
main(n)
  iterate
  {
    i = 0, rinc(i)
    total = 0.0, add(total, blocksum(rfill(pmkblock(8), i)))
  } while lt(i, n),
  result total
`
	g := compile(t, retryLoop, poolOps())
	want, err := New(g, Config{Mode: Real, Workers: 1, MaxOps: 1_000_000}).Run(value.Int(30))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			e := New(g, Config{Mode: Real, Workers: workers, MaxOps: 1_000_000,
				Retry:  RetryPolicy{MaxAttempts: 4},
				Faults: SeededFaultPlan(seed, []string{"rinc", "rfill"}, 10),
			})
			got, err := e.Run(value.Int(30))
			if err != nil {
				t.Fatalf("workers %d seed %d: %v", workers, seed, err)
			}
			if got != want {
				t.Errorf("workers %d seed %d: %v != fault-free %v", workers, seed, got, want)
			}
			st := e.Stats()
			if st.FaultsInjected == 0 || st.Blocks.Allocated != st.Blocks.Freed {
				t.Errorf("workers %d seed %d: faults %d, allocated %d freed %d",
					workers, seed, st.FaultsInjected, st.Blocks.Allocated, st.Blocks.Freed)
			}
		}
	}
}

// TestPlannedErrorPathNoLeak: a run that fails after exhausting its retries
// still satisfies Allocated == Freed — error sweeps use plain releases, but
// the accounting must balance regardless.
func TestPlannedErrorPathNoLeak(t *testing.T) {
	for _, mode := range []Mode{Real, Simulated} {
		g := compile(t, contendedBlocks, poolOps())
		e := New(g, Config{Mode: mode, Workers: 4, MaxOps: 100000,
			Retry: RetryPolicy{MaxAttempts: 2},
			Faults: NewFaultPlan(
				Fault{Op: "rfill", Execution: 1, Kind: FaultError},
				Fault{Op: "rfill", Execution: 2, Kind: FaultError},
				Fault{Op: "rfill", Execution: 3, Kind: FaultError},
			),
		})
		_, err := e.Run()
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("mode %v: err = %v, want *RunError", mode, err)
		}
		failedRunLeakCheck(t, e)
	}
}

// TestPlannedBudgetAbortNoLeak exercises the mid-flight teardown of a loop
// whose blocks cycle through the worker's pool: blocks freed before the
// abort and blocks swept by the error path afterward must add up.
func TestPlannedBudgetAbortNoLeak(t *testing.T) {
	g := compile(t, pooledLoop, poolOps())
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 60})
	_, err := e.Run(value.Int(1000))
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailBudget {
		t.Fatalf("err = %v, want RunError{FailBudget}", err)
	}
	failedRunLeakCheck(t, e)
}
