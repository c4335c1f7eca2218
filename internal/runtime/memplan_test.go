package runtime

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/operator"
	"repro/internal/opt"
	"repro/internal/value"
)

// planOps extends the fault-suite registry with a pool-allocating fresh
// operator: the block's payload comes from the worker's block pool.
func planOps() *operator.Registry {
	r := faultOps()
	r.MustRegister(&operator.Operator{
		Name: "pmkblock", Arity: 1, Fresh: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			n := int(args[0].(value.Int))
			return value.NewBlockStats(ctx.Pool().Floats(n), ctx.BlockStats()), nil
		},
	})
	// pfill is fill with the Fresh annotation: its result is its destructive
	// argument passed through, so ownership survives even when the scalar
	// fill value arrives from an unowned loop variable.
	r.MustRegister(&operator.Operator{
		Name: "pfill", Arity: 2, Destructive: []bool{true, false}, Fresh: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			b := args[0].(*value.Block)
			x := float64(args[1].(value.Int))
			vec := b.Data().(value.FloatVec)
			for i := range vec {
				vec[i] = x
			}
			return args[0], nil
		},
	})
	return r
}

// pooledLoop allocates, fills, reads, and frees a block every iteration —
// the payload cycles through the worker's block pool, planned or not.
const pooledLoop = `
main(n)
  iterate
  {
    i = 0, incr(i)
    total = 0.0, add(total, blocksum(pfill(pmkblock(8), i)))
  } while lt(i, n),
  result total
`

// closureEnvBlocks captures a block in two closure environments and calls
// through a dynamically chosen function value, so the closure call sites
// stay CallClosureNodes and the plan's environment transfer fires.
const closureEnvBlocks = `
main(n)
  let b = fill(mkblock(8), n)
      f1(i) add(float(i), blocksum(b))
      f2(i) add(float(mul(i, 2)), blocksum(b))
      g = if lt(n, 100) then f1 else f2
  in add(g(1), g(2))
`

// TestPlannedMatchesUnplanned is the core soundness property: for every
// program, worker count, and executor mode, a planned run must produce a
// value bit-identical to the unplanned one.
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
			baseline := func(mode Mode) value.Value {
				g := compile(t, p.src, planOps())
				v, err := New(g, Config{Mode: mode, Workers: 1, MaxOps: 1_000_000}).Run(args...)
				if err != nil {
					t.Fatalf("unplanned: %v", err)
				}
				return v
			}
			for _, mode := range []Mode{Real, Simulated} {
				want := baseline(mode)
				for _, workers := range []int{1, 2, 8} {
					g := compile(t, p.src, planOps())
					opt.PlanMemory(g)
					e := New(g, Config{Mode: mode, Workers: workers, MaxOps: 1_000_000})
					got, err := e.Run(args...)
					if err != nil {
						t.Fatalf("mode %v workers %d: %v", mode, workers, err)
					}
					if got != want {
						t.Errorf("mode %v workers %d: planned %v != unplanned %v", mode, workers, got, want)
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

// TestPlannedCountersFire checks each counter against the workload built to
// trigger it: pooled allocations on the alloc/free loop, planned or not (the
// runtime recycles every block freed on a worker), elided refcount traffic
// and in-place proofs on the destructive chain, environment-transfer
// elisions on the closure program.
func TestPlannedCountersFire(t *testing.T) {
	runPlan := func(src string, planned bool, workers int, args ...value.Value) *Stats {
		t.Helper()
		g := compile(t, src, planOps())
		if planned {
			opt.PlanMemory(g)
		}
		e := New(g, Config{Mode: Real, Workers: workers, MaxOps: 1_000_000})
		if _, err := e.Run(args...); err != nil {
			t.Fatalf("run: %v", err)
		}
		return e.Stats()
	}
	run := func(src string, workers int, args ...value.Value) *Stats {
		t.Helper()
		return runPlan(src, true, workers, args...)
	}

	st := runPlan(pooledLoop, false, 1, value.Int(50))
	if st.PooledAllocs == 0 {
		t.Error("unplanned pooled loop: PooledAllocs = 0, want free-list hits")
	}
	if st.ElidedRetains != 0 || st.ElidedReleases != 0 || st.CopiesAvoided != 0 {
		t.Errorf("unplanned pooled loop: elided=%d+%d inplace=%d, want no elision",
			st.ElidedRetains, st.ElidedReleases, st.CopiesAvoided)
	}

	st = run(pooledLoop, 1, value.Int(50))
	if st.PooledAllocs == 0 {
		t.Error("pooled loop: PooledAllocs = 0, want free-list hits")
	}
	if st.ElidedReleases == 0 {
		t.Error("pooled loop: ElidedReleases = 0, want statically freed blocks")
	}
	if st.CopiesAvoided == 0 {
		t.Error("pooled loop: CopiesAvoided = 0, want proven in-place destructive updates")
	}
	if st.Blocks.Copies != 0 {
		t.Errorf("pooled loop: Copies = %d, want 0", st.Blocks.Copies)
	}

	st = run(closureEnvBlocks, 2, value.Int(3))
	if st.ElidedRetains == 0 {
		t.Error("closure env: ElidedRetains = 0, want environment-transfer elisions")
	}
}

// TestPlannedStatsString: the memory-plan counter group appears in String()
// only when a plan actually saved something.
func TestPlannedStatsString(t *testing.T) {
	var s Stats
	if got := s.String(); len(got) == 0 || strings.Contains(got, "elided") {
		t.Errorf("zero stats must omit the mem group: %q", got)
	}
	s.PooledAllocs = 3
	if got := s.String(); !strings.Contains(got, "elided") {
		t.Errorf("nonzero PooledAllocs must show the mem group: %q", got)
	}
}

// TestPlannedFaultRetryDeterministic: the plan must not break the retry
// machinery — snapshots still deep-copy pristine inputs, the fault is
// invisible in the output, and nothing leaks.
func TestPlannedFaultRetryDeterministic(t *testing.T) {
	for _, mode := range []Mode{Real, Simulated} {
		for _, workers := range []int{1, 2, 8} {
			g := compile(t, contendedBlocks, planOps())
			opt.PlanMemory(g)
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
				t.Errorf("mode %v workers %d: retry snapshots must still deep-copy under a plan", mode, workers)
			}
			live := int64(len(value.Blocks(v, nil)))
			if st.Blocks.Allocated-st.Blocks.Freed != live {
				t.Errorf("mode %v workers %d: allocated %d freed %d live %d",
					mode, workers, st.Blocks.Allocated, st.Blocks.Freed, live)
			}
		}
	}
}

// TestPlannedSeededFaultRetry drives the planned executor through a seeded
// fault schedule at several worker counts; every recovered run must agree
// with the fault-free value.
func TestPlannedSeededFaultRetry(t *testing.T) {
	g := compile(t, pooledLoop, planOps())
	want, err := New(g, Config{Mode: Real, Workers: 1, MaxOps: 1_000_000}).Run(value.Int(30))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			g := compile(t, pooledLoop, planOps())
			opt.PlanMemory(g)
			e := New(g, Config{Mode: Real, Workers: workers, MaxOps: 1_000_000,
				Retry:  RetryPolicy{MaxAttempts: 4},
				Faults: SeededFaultPlan(seed, []string{"rinc"}, 10),
			})
			got, err := e.Run(value.Int(30))
			if err != nil {
				t.Fatalf("workers %d seed %d: %v", workers, seed, err)
			}
			if got != want {
				t.Errorf("workers %d seed %d: %v != fault-free %v", workers, seed, got, want)
			}
		}
	}
}

// TestPlannedErrorPathNoLeak: a run that fails with the plan active must
// still satisfy Allocated == Freed — error sweeps bypass the pool and use
// plain releases, but the accounting must balance regardless.
func TestPlannedErrorPathNoLeak(t *testing.T) {
	for _, mode := range []Mode{Real, Simulated} {
		g := compile(t, contendedBlocks, planOps())
		opt.PlanMemory(g)
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

// TestPlannedBudgetAbortNoLeak exercises the mid-flight teardown with the
// plan active: blocks freed by planned elision before the abort and blocks
// swept by the error path afterward must add up.
func TestPlannedBudgetAbortNoLeak(t *testing.T) {
	g := compile(t, pooledLoop, planOps())
	opt.PlanMemory(g)
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 60})
	_, err := e.Run(value.Int(1000))
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailBudget {
		t.Fatalf("err = %v, want RunError{FailBudget}", err)
	}
	failedRunLeakCheck(t, e)
}
