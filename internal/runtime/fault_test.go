package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/trace"
	"repro/internal/value"
)

// faultOps extends the refcount-test registry with retryable and slow
// operators for the fault-tolerance suite.
func faultOps() *operator.Registry {
	r := blockOps()
	// rfill is fill with the retry annotation: it writes its (destructive)
	// block argument, which is exactly what the snapshot machinery exists
	// to make re-runnable.
	r.MustRegister(&operator.Operator{
		Name: "rfill", Arity: 2, Destructive: []bool{true, false}, Retryable: true,
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
	// rinc is a retryable increment (not Pure, so the compiler cannot fold
	// it away under constant arguments).
	r.MustRegister(&operator.Operator{
		Name: "rinc", Arity: 1, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			return args[0].(value.Int) + 1, nil
		},
	})
	// snooze sleeps its argument in milliseconds, then returns it.
	r.MustRegister(&operator.Operator{
		Name: "snooze", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			time.Sleep(time.Duration(args[0].(value.Int)) * time.Millisecond)
			return args[0], nil
		},
	})
	// slowok sleeps 80ms but opts out of any configured timeout.
	r.MustRegister(&operator.Operator{
		Name: "slowok", Arity: 1, Timeout: -1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			time.Sleep(80 * time.Millisecond)
			return args[0], nil
		},
	})
	// slowbad carries its own 15ms bound and sleeps far past it.
	r.MustRegister(&operator.Operator{
		Name: "slowbad", Arity: 1, Timeout: 15 * time.Millisecond,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			time.Sleep(300 * time.Millisecond)
			return args[0], nil
		},
	})
	return r
}

// failedRunLeakCheck verifies the error-path teardown released every block:
// after a failed run there is no result, so allocated must equal freed.
func failedRunLeakCheck(t *testing.T, e *Engine) {
	t.Helper()
	st := &e.Stats().Blocks
	if st.Allocated != st.Freed {
		t.Errorf("error-path block leak: allocated %d, freed %d", st.Allocated, st.Freed)
	}
}

// contendedBlocks is the CoW-racing program of the refcount suite, with the
// writers marked retryable: two destructive rfills race for one block.
const contendedBlocks = `
main()
  let b = mkblock(16)
      w1 = rfill(b, 1)
      w2 = rfill(b, 2)
  in add(blocksum(w1), blocksum(w2))
`

func TestFaultPlanAccounting(t *testing.T) {
	p := NewFaultPlan(
		Fault{Op: "a", Execution: 2, Kind: FaultError},
		Fault{Op: "b", Kind: FaultPanic}, // Execution 0 normalizes to 1
	)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if f := p.next("a"); f != nil {
		t.Errorf("a execution 1: drew %v, want nil", f)
	}
	if f := p.next("a"); f == nil || f.Kind != FaultError {
		t.Errorf("a execution 2: drew %v, want the error fault", f)
	}
	if f := p.next("b"); f == nil || f.Kind != FaultPanic {
		t.Errorf("b execution 1: drew %v, want the panic fault", f)
	}
	if f := p.next("c"); f != nil {
		t.Errorf("unlisted op drew %v", f)
	}
	p.Reset()
	if f := p.next("b"); f == nil {
		t.Error("after Reset, b execution 1 drew nil; counters must rewind")
	}
}

func TestSeededFaultPlanDeterministic(t *testing.T) {
	ops := []string{"x", "y", "z"}
	p1 := SeededFaultPlan(42, ops, 10)
	p2 := SeededFaultPlan(42, ops, 10)
	if p1.Len() != len(ops) || p2.Len() != len(ops) {
		t.Fatalf("Len = %d/%d, want %d", p1.Len(), p2.Len(), len(ops))
	}
	for _, op := range ops {
		f1, f2 := p1.byOp[op], p2.byOp[op]
		if f1 == nil || f2 == nil {
			t.Fatalf("op %s missing from a seeded plan", op)
		}
		for exec, a := range f1.byExec {
			b := f2.byExec[exec]
			if b == nil || a.Kind != b.Kind {
				t.Errorf("op %s exec %d: plans diverge (%v vs %v)", op, exec, a, b)
			}
			if exec < 1 || exec > 10 {
				t.Errorf("op %s: execution %d outside [1, 10]", op, exec)
			}
		}
	}
}

// TestRetryRecoversDeterministically is the core acceptance property: an
// injected failure of a destructive operator, retried on snapshots, must be
// invisible in the output — including the CoW interaction with a racing
// second writer.
func TestRetryRecoversDeterministically(t *testing.T) {
	for _, mode := range []Mode{Real, Simulated} {
		for _, kind := range []FaultKind{FaultError, FaultPanic} {
			g := compile(t, contendedBlocks, faultOps())
			e := New(g, Config{Mode: mode, Workers: 4, MaxOps: 100000,
				Retry:  RetryPolicy{MaxAttempts: 3},
				Faults: KillOnce(kind, "rfill"),
			})
			v, err := e.Run()
			if err != nil {
				t.Fatalf("mode %v kind %v: %v", mode, kind, err)
			}
			if v != value.Float(48) {
				t.Errorf("mode %v kind %v: result = %v, want 48 (fault-free value)", mode, kind, v)
			}
			st := e.Stats()
			if st.FaultsInjected != 1 || st.Retries != 1 {
				t.Errorf("mode %v kind %v: faults=%d retries=%d, want 1/1",
					mode, kind, st.FaultsInjected, st.Retries)
			}
			if st.SnapshotCopies == 0 {
				t.Errorf("mode %v kind %v: no snapshot copies for a destructive retryable op", mode, kind)
			}
			live := int64(len(value.Blocks(v, nil)))
			if st.Blocks.Allocated-st.Blocks.Freed != live {
				t.Errorf("mode %v kind %v: leak after recovery: allocated %d freed %d live %d",
					mode, kind, st.Blocks.Allocated, st.Blocks.Freed, live)
			}
		}
	}
}

// TestAffinityBitIdentity: placement is advisory, so seeded faults under
// retry on the block tree recover to the same bits
// on 1, 2 and 8 stealing workers and under every §9.3 simulated placement
// policy, and every run frees every block.
func TestAffinityBitIdentity(t *testing.T) {
	g := compileBlockTree(t)
	var ref string
	for _, cfg := range []Config{
		{Mode: Real, Workers: 1},
		{Mode: Real, Workers: 2},
		{Mode: Real, Workers: 8},
		{Mode: Simulated, Workers: 4, Affinity: AffinityNone},
		{Mode: Simulated, Workers: 4, Affinity: AffinityOperator},
		{Mode: Simulated, Workers: 4, Affinity: AffinityData},
	} {
		name := fmt.Sprintf("mode=%d/w%d/%v", cfg.Mode, cfg.Workers, cfg.Affinity)
		cfg.MaxOps = 5_000_000
		cfg.Retry = RetryPolicy{MaxAttempts: 3}
		// Each engine needs a private plan: plans keep cursors.
		cfg.Faults = SeededFaultPlan(7, []string{"rfill"}, 40)
		e := New(g, cfg)
		v, err := e.Run(value.Int(6))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%v", v); ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("%s diverged: got %s want %s", name, got, ref)
		}
		if st := e.Stats(); st.FaultsInjected == 0 || st.Blocks.Allocated != st.Blocks.Freed {
			t.Fatalf("%s: faults=%d, allocated %d freed %d", name,
				st.FaultsInjected, st.Blocks.Allocated, st.Blocks.Freed)
		}
	}
}

// TestRetryExhaustion arms a fault on every attempt: the run must fail with
// a structured error carrying the attempt count, and the teardown must
// release every block, including the one the second writer still shares.
// The fault plan counts executions per operator, so that writer is the
// unfaulted fill: all three faults land on w1 however the workers interleave.
func TestRetryExhaustion(t *testing.T) {
	const src = `
main()
  let b = mkblock(16)
      w1 = rfill(b, 1)
      w2 = fill(b, 2)
  in add(blocksum(w1), blocksum(w2))
`
	for _, mode := range []Mode{Real, Simulated} {
		g := compile(t, src, faultOps())
		e := New(g, Config{Mode: mode, Workers: 4, MaxOps: 100000,
			Retry: RetryPolicy{MaxAttempts: 3},
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
		if re.Kind != FailError || re.Attempts != 3 || re.Op != "rfill" {
			t.Errorf("mode %v: kind=%v attempts=%d op=%q, want FailError/3/rfill",
				mode, re.Kind, re.Attempts, re.Op)
		}
		if len(re.Path) == 0 || re.Path[0] != "main" {
			t.Errorf("mode %v: Path = %v, want activation path from main", mode, re.Path)
		}
		if e.Stats().Retries != 2 {
			t.Errorf("mode %v: Retries = %d, want 2", mode, e.Stats().Retries)
		}
		failedRunLeakCheck(t, e)
	}
}

// TestNonRetryableNotRetried: retry config must not re-run an operator that
// never declared itself safe to re-run.
func TestNonRetryableNotRetried(t *testing.T) {
	src := "main() blocksum(fill(mkblock(8), 3))"
	g := compile(t, src, faultOps())
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 100000,
		Retry:  RetryPolicy{MaxAttempts: 5},
		Faults: KillOnce(FaultError, "fill"),
	})
	_, err := e.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (fill is not retryable)", re.Attempts)
	}
	if e.Stats().Retries != 0 {
		t.Errorf("Retries = %d, want 0", e.Stats().Retries)
	}
	failedRunLeakCheck(t, e)
}

// TestPanicStackCaptured: a panicking operator must surface the panic value
// and the goroutine stack it was captured on.
func TestPanicStackCaptured(t *testing.T) {
	g := compile(t, "main() blocksum(fill(mkblock(4), 1))", faultOps())
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 100000,
		Faults: KillOnce(FaultPanic, "blocksum"),
	})
	_, err := e.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Kind != FailPanic {
		t.Errorf("Kind = %v, want FailPanic", re.Kind)
	}
	if !strings.Contains(err.Error(), "operator panicked") {
		t.Errorf("err = %q, want the panic diagnostic", err)
	}
	if len(re.Stack) == 0 || !strings.Contains(string(re.Stack), "goroutine") {
		t.Errorf("Stack not captured: %q", re.Stack)
	}
	failedRunLeakCheck(t, e)
}

// loopBlocks allocates and frees a block every iteration — the workload for
// interrupting a run mid-flight and checking nothing leaked.
const loopBlocks = `
main(n)
  iterate
  {
    i = 0, incr(i)
    total = 0.0, add(total, blocksum(fill(mkblock(8), i)))
  } while lt(i, n),
  result total
`

func TestRunContextCancel(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"real-1", Config{Mode: Real, Workers: 1, MaxOps: 500_000_000}},
		{"real-4", Config{Mode: Real, Workers: 4, MaxOps: 500_000_000}},
		{"sim", Config{Mode: Simulated, Workers: 4, MaxOps: 500_000_000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := compile(t, loopBlocks, faultOps())
			e := New(g, tc.cfg)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := e.RunContext(ctx, value.Int(100_000_000))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var re *RunError
			if !errors.As(err, &re) || re.Kind != FailCanceled {
				t.Errorf("err = %v, want RunError{FailCanceled}", err)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Errorf("cancellation took %v; run did not drain promptly", d)
			}
			failedRunLeakCheck(t, e)
		})
	}
}

// TestCheckOpsPollsOnBoundaryCrossing: the worker's count crosses a multiple
// of 64 on every 64th dispatch, and the poll must fire exactly then — on a
// count that started off a boundary, so the poll follows the count and not
// the number of calls.
func TestCheckOpsPollsOnBoundaryCrossing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Engine{runCtx: ctx, ctxDone: ctx.Done()}
	w := &worker{e: e}
	w.n.ops = 1
	polls := 0
	for i := 0; i < 64_000; i++ {
		err := e.checkOps(w, nil)
		if crossed := w.n.ops&63 == 0; crossed != (err != nil) {
			t.Fatalf("ops %d: crossed=%v, err=%v", w.n.ops, crossed, err)
		}
		if err != nil {
			polls++
		}
	}
	if polls != 1000 {
		t.Errorf("%d polls in 64000 dispatches, want one per 64-node boundary (1000)", polls)
	}
}

// TestFusedLoopCancelBounded is the end-to-end form: serial Real and
// Simulated runs have no watcher goroutine, so the operator-boundary poll is
// their only cancellation path. The loop below runs a chain of 61 operators
// per pass, so passes and poll periods never line up. Cancelled from inside,
// the one-worker run must still stop within one poll period.
func TestFusedLoopCancelBounded(t *testing.T) {
	const depth = 61
	body := "i"
	for k := 0; k < depth; k++ {
		body = "tick(" + body + ")"
	}
	src := "main(n)\n  let m = tick(n)\n  in iterate { i = 0, " + body + " } while lt(i, m), result i\n"
	for _, mode := range []Mode{Real, Simulated} {
		ctx, cancel := context.WithCancel(context.Background())
		var e *Engine
		var ticks, atCancel int64
		reg := operator.NewRegistry(operator.Builtins())
		reg.MustRegister(&operator.Operator{
			Name: "tick", Arity: 1,
			Fn: func(_ operator.Context, args []value.Value) (value.Value, error) {
				if ticks++; ticks == 10*depth {
					// Stats are folded at run end; the one worker's own
					// count is the run's so far.
					atCancel = e.workers[0].n.ops
					cancel()
				}
				return args[0].(value.Int) + 1, nil
			},
		})
		e = New(compile(t, src, reg), Config{Mode: mode, Workers: 1, MaxOps: 5_000_000})
		_, err := e.RunContext(ctx, value.Int(1_000_000))
		var re *RunError
		if !errors.As(err, &re) || re.Kind != FailCanceled {
			t.Fatalf("mode %d: err = %v, want RunError{FailCanceled}", mode, err)
		}
		st := e.Stats()
		if over := st.OpsExecuted - atCancel; over > 64 {
			t.Errorf("mode %d: ran %d nodes past the cancellation, want at most one poll period", mode, over)
		}
	}
}

func TestRunContextDeadline(t *testing.T) {
	g := compile(t, loopBlocks, faultOps())
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 500_000_000})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.RunContext(ctx, value.Int(100_000_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	failedRunLeakCheck(t, e)
}

// TestRunContextPreCancelled: a context dead on arrival fails fast without
// consuming the engine's one run.
func TestRunContextPreCancelled(t *testing.T) {
	g := compile(t, "main() add(1, 2)", faultOps())
	e := New(g, Config{Mode: Real, Workers: 1, MaxOps: 100000})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunContext(ctx)
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailCanceled {
		t.Fatalf("err = %v, want RunError{FailCanceled}", err)
	}
	// The rejected call must not have consumed the engine.
	v, err := e.Run()
	if err != nil || v != value.Int(3) {
		t.Errorf("run after pre-cancelled attempt: %v, %v; want 3", v, err)
	}
}

// TestOpTimeout bounds four parallel sleepers with Config.OpTimeout and
// checks the run fails with FailTimeout, promptly, on a wide worker pool.
func TestOpTimeout(t *testing.T) {
	src := `
main()
  let b = fill(mkblock(8), 1)
  in add(blocksum(b), float(add(add(snooze(500), snooze(501)), add(snooze(502), snooze(503)))))
`
	g := compile(t, src, faultOps())
	e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 100000,
		OpTimeout: 25 * time.Millisecond})
	start := time.Now()
	_, err := e.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailTimeout {
		t.Fatalf("err = %v, want RunError{FailTimeout}", err)
	}
	if re.Op != "snooze" {
		t.Errorf("Op = %q, want snooze", re.Op)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %q, want a timeout diagnostic", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("timeout surfaced after %v; run did not drain promptly", d)
	}
	if e.Stats().OpTimeouts == 0 {
		t.Error("OpTimeouts counter not bumped")
	}
	failedRunLeakCheck(t, e)
}

// TestPerOperatorTimeoutOverride: Operator.Timeout overrides Config.OpTimeout
// in both directions — negative opts out, positive tightens.
func TestPerOperatorTimeoutOverride(t *testing.T) {
	// slowok sleeps 80ms with Timeout -1: must survive a 10ms global bound.
	g := compile(t, "main() slowok(7)", faultOps())
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 100000,
		OpTimeout: 10 * time.Millisecond})
	v, err := e.Run()
	if err != nil || v != value.Int(7) {
		t.Errorf("slowok: %v, %v; want 7 (negative Timeout opts out)", v, err)
	}

	// slowbad sleeps 300ms with its own 15ms bound and no global one.
	g = compile(t, "main() slowbad(7)", faultOps())
	e = New(g, Config{Mode: Real, Workers: 2, MaxOps: 100000})
	_, err = e.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailTimeout {
		t.Errorf("slowbad: err = %v, want RunError{FailTimeout}", err)
	}
}

// TestDelayFaultTimeoutRetry composes all three mechanisms: an injected
// delay pushes the first attempt past OpTimeout, the timeout is retryable,
// and the second attempt succeeds on the goroutine the watchdog resumed the
// worker on. Every leg checks the result, the counters, block accounting,
// balanced trace brackets, a timing log with one entry for the delayed
// operator (the attempt the watchdog abandoned has none), and that no
// goroutine outlives the delayed attempt. The timing-2 leg records at node
// level only, so the watchdog closes a bracket of that recorder too. The destructive leg times out an attempt that runs on a snapshot
// copy, so the resumed attempt must restore the pristine original.
func TestDelayFaultTimeoutRetry(t *testing.T) {
	const (
		limit = 30 * time.Millisecond
		delay = 150 * time.Millisecond
	)
	legs := []struct {
		name    string
		cfg     Config
		src     string
		want    value.Value
		many    bool
		backoff time.Duration
		// untraced turns Trace off, leaving Timing's node-level recorder.
		untraced bool
	}{
		{name: "real-1", cfg: Config{Mode: Real, Workers: 1}},
		{name: "real-2", cfg: Config{Mode: Real, Workers: 2}},
		{name: "sim-2", cfg: Config{Mode: Simulated, Workers: 2}},
		{name: "runmany-2", cfg: Config{Mode: Real, Workers: 2}, many: true},
		{name: "backoff-2", cfg: Config{Mode: Real, Workers: 2}, backoff: 40 * time.Millisecond},
		{name: "destructive-2", cfg: Config{Mode: Real, Workers: 2},
			src: "main(n) blocksum(rfill(mkblock(2), sub(n, 2)))", want: value.Float(6)},
		{name: "timing-2", cfg: Config{Mode: Real, Workers: 2}, untraced: true},
	}
	// The watchdog starts with the first bounded run and then stays; start
	// it before the baseline.
	warm := New(compile(t, "main(n) rinc(n)", faultOps()), Config{OpTimeout: time.Second})
	if _, err := warm.Run(value.Int(1)); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			src, want, op := "main(n) rinc(n)", value.Value(value.Int(6)), "rinc"
			if leg.src != "" {
				src, want, op = leg.src, leg.want, "rfill"
			}
			cfg := leg.cfg
			cfg.MaxOps, cfg.OpTimeout, cfg.Timing, cfg.Trace = 100000, limit, true, !leg.untraced
			cfg.Retry = RetryPolicy{MaxAttempts: 2, Backoff: leg.backoff}
			cfg.Faults = NewFaultPlan(Fault{Op: op, Execution: 1, Kind: FaultDelay, Delay: delay})
			e := New(compile(t, src, faultOps()), cfg)
			start := time.Now()
			var v value.Value
			var err error
			if leg.many {
				// Every invocation rewinds the plan, so each one times out
				// once; Stats describe the last.
				res, merr := e.RunMany(context.Background(), [][]value.Value{{value.Int(5)}, {value.Int(5)}})
				if merr != nil {
					t.Fatalf("RunMany: %v", merr)
				}
				if res[0].Err != nil || res[0].Value != want {
					t.Errorf("first invocation = %v, %v; want %v", res[0].Value, res[0].Err, want)
				}
				v, err = res[1].Value, res[1].Err
			} else {
				v, err = e.Run(value.Int(5))
			}
			took := time.Since(start)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if v != want {
				t.Errorf("result = %v, want %v", v, want)
			}
			if took < limit+leg.backoff {
				t.Errorf("run took %v, less than the limit plus the backoff", took)
			}
			st := e.Stats()
			if st.OpTimeouts != 1 || st.Retries != 1 || st.FaultsInjected != 1 {
				t.Errorf("timeouts=%d retries=%d faults=%d, want 1/1/1",
					st.OpTimeouts, st.Retries, st.FaultsInjected)
			}
			if leg.src != "" && st.SnapshotCopies == 0 {
				t.Error("the timed-out attempt ran on no snapshot copy")
			}
			value.Release(v, &st.Blocks)
			if st.Blocks.Allocated != st.Blocks.Freed {
				t.Errorf("allocated %d, freed %d", st.Blocks.Allocated, st.Blocks.Freed)
			}
			var timed []trace.TimingEntry
			for _, en := range e.Timing().Entries() {
				if en.Name == op {
					timed = append(timed, en)
				}
			}
			if len(timed) != 1 || timed[0].Stolen {
				t.Errorf("%s timing entries = %+v, want one, not stolen", op, timed)
			}
			if !leg.untraced {
				checkBrackets(t, 0, e)
			}
			settledGoroutines(t, base)
		})
	}
}

// TestDeadlockStructuredError: the shared deadlock diagnostic must be a
// RunError carrying the blocked activation path.
func TestDeadlockStructuredError(t *testing.T) {
	inc, _ := operator.Builtins().Lookup("incr")
	tmpl := &graph.Template{Name: "main"}
	tmpl.Nodes = []*graph.Node{
		{ID: 0, Kind: graph.ConstNode, Const: value.Int(1), Out: []graph.Edge{{To: 1, Port: 0}}},
		{ID: 1, Kind: graph.OpNode, Name: "incr", Op: inc, NIn: 1},
		{ID: 2, Kind: graph.OpNode, Name: "incr", Op: inc, NIn: 1}, // never fed
	}
	tmpl.Result = 2
	prog := &graph.Program{Templates: map[string]*graph.Template{"main": tmpl}, Main: tmpl}
	graph.Number(prog)
	for _, workers := range []int{1, 2} {
		for _, mode := range []Mode{Real, Simulated} {
			e := New(prog, Config{Mode: mode, Workers: workers, MaxOps: 1000})
			_, err := e.Run()
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("mode %v workers %d: err = %v, want *RunError", mode, workers, err)
			}
			if re.Kind != FailDeadlock {
				t.Errorf("mode %v workers %d: Kind = %v, want FailDeadlock", mode, workers, re.Kind)
			}
			if !strings.Contains(err.Error(), "deadlocked") {
				t.Errorf("mode %v workers %d: err = %q, want the deadlock diagnostic", mode, workers, err)
			}
			if len(re.Path) == 0 {
				t.Errorf("mode %v workers %d: Path empty, want blocked activation path", mode, workers)
			}
		}
	}
}

// TestBudgetStructuredError: the operation-budget failure is a RunError too.
func TestBudgetStructuredError(t *testing.T) {
	g := compile(t, loopBlocks, faultOps())
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 50})
	_, err := e.Run(value.Int(1000))
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailBudget {
		t.Fatalf("err = %v, want RunError{FailBudget}", err)
	}
	if !strings.Contains(err.Error(), "operation budget") {
		t.Errorf("err = %q, want the budget diagnostic", err)
	}
	failedRunLeakCheck(t, e)
}

// TestRetryBackoffApplied: a configured backoff must actually delay the
// retried attempt (coarse bound; determinism of the result is covered
// elsewhere).
func TestRetryBackoffApplied(t *testing.T) {
	g := compile(t, "main(n) rinc(n)", faultOps())
	e := New(g, Config{Mode: Real, Workers: 1, MaxOps: 100000,
		Retry:  RetryPolicy{MaxAttempts: 2, Backoff: 60 * time.Millisecond},
		Faults: KillOnce(FaultError, "rinc"),
	})
	start := time.Now()
	v, err := e.Run(value.Int(1))
	if err != nil || v != value.Int(2) {
		t.Fatalf("run: %v, %v", v, err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Errorf("run finished in %v; backoff of 60ms not applied", d)
	}
}
