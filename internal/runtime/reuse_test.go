package runtime

import (
	"context"
	"errors"
	"testing"

	"repro/internal/value"
)

// Engine reuse suite: a Reset engine must behave bit-identically to a fresh
// one — across worker counts, executor modes, and the retry/faults
// composition — while its warmed pools persist and its per-run block
// accounting stays balanced.

// reuseWorkers are the worker counts every reuse property is checked at.
var reuseWorkers = []int{1, 2, 8}

func TestReusedEngineMatchesFresh(t *testing.T) {
	const runs = 3
	for _, mode := range []Mode{Real, Simulated} {
		for _, workers := range reuseWorkers {
			// Fresh baseline: a new engine per run.
			g := compile(t, pooledLoop, poolOps())
			fresh := New(g, Config{Mode: mode, Workers: workers, MaxOps: 1_000_000})
			want, err := fresh.Run(value.Int(50))
			if err != nil {
				t.Fatalf("mode %v workers %d: fresh run: %v", mode, workers, err)
			}
			wantOps := fresh.Stats().OpsExecuted

			e := New(g, Config{Mode: mode, Workers: workers, MaxOps: 1_000_000})
			var prevHits int64
			for run := 0; run < runs; run++ {
				if run > 0 {
					if err := e.Reset(); err != nil {
						t.Fatalf("mode %v workers %d run %d: Reset: %v", mode, workers, run, err)
					}
				}
				got, err := e.Run(value.Int(50))
				if err != nil {
					t.Fatalf("mode %v workers %d run %d: %v", mode, workers, run, err)
				}
				if got != want {
					t.Errorf("mode %v workers %d run %d: reused %v != fresh %v", mode, workers, run, got, want)
				}
				st := e.Stats()
				// The result is a scalar, so every block allocated this run
				// must have been freed this run — the per-run accounting must
				// balance even though the free lists carry payloads over.
				if st.Blocks.Allocated != st.Blocks.Freed {
					t.Errorf("mode %v workers %d run %d: allocated %d != freed %d",
						mode, workers, run, st.Blocks.Allocated, st.Blocks.Freed)
				}
				if st.PooledAllocs == 0 {
					t.Errorf("mode %v workers %d run %d: PooledAllocs = 0, want free-list hits", mode, workers, run)
				}
				if st.OpsExecuted != wantOps {
					t.Errorf("mode %v workers %d run %d: OpsExecuted = %d, want the fresh run's %d",
						mode, workers, run, st.OpsExecuted, wantOps)
				}
				// Cross-run pool persistence: the serial executor's run 2+
				// starts with a warm free list, so even the first allocation
				// hits — strictly more hits than the cold run 1.
				if workers == 1 && run > 0 && st.PooledAllocs <= prevHits {
					t.Errorf("mode %v workers %d run %d: PooledAllocs = %d, want > %d (warm pool)",
						mode, workers, run, st.PooledAllocs, prevHits)
				}
				if run == 0 {
					prevHits = st.PooledAllocs
				}
			}
			if e.Runs() != runs {
				t.Errorf("mode %v workers %d: Runs() = %d, want %d", mode, workers, e.Runs(), runs)
			}
		}
	}
}

// TestReusedEngineFaultRetry: a stateful fault plan must rewind on Reset, so
// every run of a reused engine sees the same fault schedule, retries it away
// identically, and balances its block accounting.
func TestReusedEngineFaultRetry(t *testing.T) {
	for _, mode := range []Mode{Real, Simulated} {
		for _, workers := range reuseWorkers {
			g := compile(t, contendedBlocks, poolOps())
			e := New(g, Config{Mode: mode, Workers: workers, MaxOps: 100000,
				Retry:  RetryPolicy{MaxAttempts: 3},
				Faults: KillOnce(FaultError, "rfill"),
			})
			for run := 0; run < 3; run++ {
				if run > 0 {
					if err := e.Reset(); err != nil {
						t.Fatalf("mode %v workers %d run %d: Reset: %v", mode, workers, run, err)
					}
				}
				v, err := e.Run()
				if err != nil {
					t.Fatalf("mode %v workers %d run %d: %v", mode, workers, run, err)
				}
				if v != value.Float(48) {
					t.Errorf("mode %v workers %d run %d: result = %v, want 48", mode, workers, run, v)
				}
				st := e.Stats()
				// Without the plan rewind, run 2+ would inject nothing (the
				// cursor stays past the scheduled execution) and these
				// counters would read zero.
				if st.FaultsInjected == 0 {
					t.Errorf("mode %v workers %d run %d: FaultsInjected = 0, want the rewound fault to fire",
						mode, workers, run)
				}
				if st.Retries == 0 {
					t.Errorf("mode %v workers %d run %d: Retries = 0", mode, workers, run)
				}
				if st.Blocks.Allocated != st.Blocks.Freed {
					t.Errorf("mode %v workers %d run %d: allocated %d != freed %d",
						mode, workers, run, st.Blocks.Allocated, st.Blocks.Freed)
				}
			}
		}
	}
}

// TestResetLifecycle pins the state machine: Reset on a fresh engine is a
// no-op, a finished engine still reports ErrAlreadyRun until Reset, and a
// failed run resets the same way a successful one does.
func TestResetLifecycle(t *testing.T) {
	g := compile(t, "main(a, b) div(a, b)", nil)
	e := New(g, Config{Mode: Real, Workers: 2})

	if err := e.Reset(); err != nil {
		t.Fatalf("Reset on a fresh engine = %v, want nil", err)
	}
	if v, err := e.Run(value.Int(84), value.Int(2)); err != nil || v != value.Int(42) {
		t.Fatalf("first run = %v, %v", v, err)
	}
	if _, err := e.Run(value.Int(84), value.Int(2)); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("unreset rerun err = %v, want ErrAlreadyRun", err)
	}
	if err := e.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}

	// A failed run consumes the engine the same way; Reset recovers it.
	if _, err := e.Run(value.Int(1), value.Int(0)); err == nil {
		t.Fatal("division by zero must fail")
	}
	if _, err := e.Run(value.Int(84), value.Int(2)); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("rerun after failure err = %v, want ErrAlreadyRun", err)
	}
	if err := e.Reset(); err != nil {
		t.Fatalf("Reset after failure: %v", err)
	}
	if v, err := e.Run(value.Int(84), value.Int(2)); err != nil || v != value.Int(42) {
		t.Fatalf("run after failed-run Reset = %v, %v", v, err)
	}
	if e.Runs() != 3 {
		t.Errorf("Runs() = %d, want 3 (two successes and one failure)", e.Runs())
	}
}

// TestRunManyMatchesFresh checks that a RunMany batch over one reused engine
// produces, per invocation, exactly the value a fresh engine produces
// for the same arguments.
func TestRunManyMatchesFresh(t *testing.T) {
	g := compile(t, pooledLoop, poolOps())
	args := []value.Value{value.Int(10), value.Int(25), value.Int(50), value.Int(25), value.Int(10)}
	for _, workers := range reuseWorkers {
		cfg := Config{Mode: Real, Workers: workers, MaxOps: 1_000_000}
		want := make([]value.Value, len(args))
		for i, a := range args {
			v, err := New(g, cfg).Run(a)
			if err != nil {
				t.Fatalf("workers %d: fresh run %d: %v", workers, i, err)
			}
			want[i] = v
		}
		batch := make([][]value.Value, len(args))
		for i, a := range args {
			batch[i] = []value.Value{a}
		}
		e := New(g, cfg)
		results, err := e.RunMany(context.Background(), batch)
		if err != nil {
			t.Fatalf("workers %d: RunMany: %v", workers, err)
		}
		if len(results) != len(args) {
			t.Fatalf("workers %d: %d results for %d invocations", workers, len(results), len(args))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("workers %d invocation %d: %v", workers, i, r.Err)
				continue
			}
			if r.Value != want[i] {
				t.Errorf("workers %d invocation %d: %v != fresh %v", workers, i, r.Value, want[i])
			}
		}
		if e.Runs() != int64(len(args)) {
			t.Errorf("workers %d: Runs() = %d, want %d", workers, e.Runs(), len(args))
		}
	}
}

// TestRunManyFailureIsolation: one failing invocation records its error in
// its own slot; the rest of the batch still runs and succeeds.
func TestRunManyFailureIsolation(t *testing.T) {
	g := compile(t, "main(a, b) div(a, b)", nil)
	for _, workers := range reuseWorkers {
		e := New(g, Config{Mode: Real, Workers: workers})
		results, err := e.RunMany(context.Background(), [][]value.Value{
			{value.Int(84), value.Int(2)},
			{value.Int(1), value.Int(0)}, // fails
			{value.Int(6), value.Int(3)},
		})
		if err != nil {
			t.Fatalf("workers %d: RunMany: %v", workers, err)
		}
		if results[0].Err != nil || results[0].Value != value.Int(42) {
			t.Errorf("workers %d: invocation 0 = %v, %v", workers, results[0].Value, results[0].Err)
		}
		var re *RunError
		if !errors.As(results[1].Err, &re) {
			t.Errorf("workers %d: invocation 1 err = %v, want *RunError", workers, results[1].Err)
		}
		if results[2].Err != nil || results[2].Value != value.Int(2) {
			t.Errorf("workers %d: invocation 2 = %v, %v", workers, results[2].Value, results[2].Err)
		}
	}
}

// TestRunManyCanceled: a dead context fails every remaining invocation with
// FailCanceled without consuming the engine, and a subsequent RunMany on the
// same engine works.
func TestRunManyCanceled(t *testing.T) {
	g := compile(t, "main(a, b) add(a, b)", nil)
	e := New(g, Config{Mode: Real, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := [][]value.Value{{value.Int(1), value.Int(2)}, {value.Int(3), value.Int(4)}}
	results, err := e.RunMany(ctx, batch)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	for i, r := range results {
		var re *RunError
		if !errors.As(r.Err, &re) || re.Kind != FailCanceled {
			t.Errorf("invocation %d err = %v, want RunError{FailCanceled}", i, r.Err)
		}
	}
	results, err = e.RunMany(context.Background(), batch)
	if err != nil {
		t.Fatalf("second RunMany: %v", err)
	}
	if results[0].Value != value.Int(3) || results[1].Value != value.Int(7) {
		t.Errorf("second batch = %v / %v", results[0], results[1])
	}
}

// TestRunManyFaultRetry drives the full composition through the persistent
// pool: every invocation of the batch sees the same rewound fault schedule
// and retries it away to the fault-free value.
func TestRunManyFaultRetry(t *testing.T) {
	g := compile(t, contendedBlocks, poolOps())
	for _, workers := range reuseWorkers {
		e := New(g, Config{Mode: Real, Workers: workers, MaxOps: 100000,
			Retry:  RetryPolicy{MaxAttempts: 3},
			Faults: KillOnce(FaultError, "rfill"),
		})
		results, err := e.RunMany(context.Background(), [][]value.Value{nil, nil, nil})
		if err != nil {
			t.Fatalf("workers %d: RunMany: %v", workers, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("workers %d invocation %d: %v", workers, i, r.Err)
				continue
			}
			if r.Value != value.Float(48) {
				t.Errorf("workers %d invocation %d: %v, want 48", workers, i, r.Value)
			}
		}
	}
}

// TestWarmDispatchAllocsFlat: a warm dispatch allocates nothing per node. A
// counting loop is Reset and re-run at 100 and at 250 iterations, at one and
// two Real workers. Every iteration pushes its nodes, expands the loop's
// conditional with an argument vector and settles its operators' references,
// and every value stays below 256, so boxing never allocates: the two sizes
// may differ by run-level noise only. AllocsPerRun counts every allocation
// the process makes; the minimum over a few measurements keeps those of
// other goroutines out of the comparison.
func TestWarmDispatchAllocsFlat(t *testing.T) {
	g := compile(t, "main(n) iterate { i = 0, incr(i) } while lt(i, n), result i", nil)
	for _, workers := range []int{1, 2} {
		e := New(g, Config{Mode: Real, Workers: workers})
		allocs := func(n int) float64 {
			best := -1.0
			for i := 0; i < 3; i++ {
				a := testing.AllocsPerRun(20, func() {
					if err := e.Reset(); err != nil {
						t.Fatal(err)
					}
					if v, err := e.Run(value.Int(n)); err != nil || v != value.Int(n) {
						t.Fatalf("run(%d) = %v, %v", n, v, err)
					}
				})
				if best < 0 || a < best {
					best = a
				}
			}
			return best
		}
		small, large := allocs(100), allocs(250)
		t.Logf("workers=%d: %.0f allocations per run at 100 iterations, %.0f at 250", workers, small, large)
		if d := large - small; d > 4 || d < -4 {
			t.Errorf("workers=%d: 150 more iterations changed allocations per run by %.0f, want at most 4", workers, d)
		}
	}
}
