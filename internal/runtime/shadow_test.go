package runtime

import (
	"context"
	"errors"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/operator"
	"repro/internal/value"
)

// shadowOps registers a stallable block allocator for the abandoned-call
// suite: stall(n) allocates a block, parks on gates[n] (n < 0 skips the
// park), then charges, writes and returns the block. Parking inside the operator
// body is exactly the shape Go cannot preempt, so an OpTimeout abandons the
// goroutine mid-flight; releasing the gate later lets the stray goroutine
// unwind while the engine is in a different run generation.
func shadowOps(gates []chan struct{}) *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())
	r.MustRegister(&operator.Operator{
		Name: "stall", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			n := int(args[0].(value.Int))
			b := value.NewBlockStats(make(value.FloatVec, 8), ctx.BlockStats())
			if n >= 0 {
				<-gates[n]
			}
			ctx.Charge(stallCharge)
			vec := b.Data().(value.FloatVec)
			for i := range vec {
				vec[i] = 2
			}
			return b, nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "bsum", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			var s float64
			for _, x := range args[0].(*value.Block).Data().(value.FloatVec) {
				s += x
			}
			return value.Float(s), nil
		},
	})
	return r
}

// stallCharge is what one stall call charges, after its gate opens: a
// goroutine abandoned to the watchdog charges its private shadow worker, so
// a reused run that sees more than its own stall's charge leaked one.
const stallCharge = 7

// settledGoroutines waits for the goroutine count to fall back to base —
// abandoned goroutines unwind asynchronously once their gate opens — and
// fails the test if it does not.
func settledGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d\n%s", goruntime.NumGoroutine(), base,
				buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkBrackets fails the test unless every TraceNodeStart of e's last run
// has its TraceNodeEnd: the watchdog closes the slices a worker it abandoned
// left open, so a timeout trace still shows the operator that overran.
func checkBrackets(t *testing.T, i int, e *Engine) {
	t.Helper()
	var starts, ends int
	for _, buf := range e.Trace().Events {
		for _, ev := range buf {
			switch ev.Type {
			case TraceNodeStart:
				starts++
			case TraceNodeEnd:
				ends++
			}
		}
	}
	if starts == 0 || starts != ends {
		t.Errorf("round %d: trace has %d node starts and %d ends, want equal and nonzero", i, starts, ends)
	}
}

// TestShadowAbandonedAfterReset is the Reset/abandoned-call regression test,
// over every shape of run loop: an operator abandoned by an op-timeout
// unwinds only after the engine has been Reset() and reused for a later run,
// and must not publish its result, its charges, or its block accounting into
// that later run. Each round times out a stalled run, resets, releases the
// stalled goroutine, and immediately drives a clean run the stray unwind
// races against; run under -race this catches any write that escapes the
// abandoned goroutine's private state. The RunMany leg times out inside a
// batch, so the persistent pool must replace its stuck goroutine before the
// batch's next run and join only live goroutines when it stops. The
// fused-middle leg stalls the middle of an incr -> stall -> bsum chain, so a
// node of the activation has already run and one still waits when the
// watchdog takes over. The counters leg checks
// that the watchdog publishes the counters of the worker it abandoned. Every
// timed-out run's trace closes every node slice it opened. Once every gate is
// open, every goroutine the legs started must be gone again.
func TestShadowAbandonedAfterReset(t *testing.T) {
	const rounds = 5
	legs := []struct {
		name    string
		cfg     Config
		middle  bool
		many    bool
		charged int64 // ChargedUnits of a clean run
		// counters checks the timed-out run's OpsExecuted, OperatorsRun and
		// ChargedUnits: at one worker the stuck goroutine dispatched every
		// node, so only the watchdog's fold can publish them.
		counters bool
	}{
		{name: "real-1", cfg: Config{Mode: Real, Workers: 1}, charged: stallCharge},
		// incr charges one unit of its own.
		{name: "real-1-counters", cfg: Config{Mode: Real, Workers: 1}, counters: true, charged: stallCharge + 2},
		{name: "real-2", cfg: Config{Mode: Real, Workers: 2}, charged: stallCharge},
		{name: "runmany-2", cfg: Config{Mode: Real, Workers: 2}, many: true, charged: stallCharge},
		{name: "sim", cfg: Config{Mode: Simulated, Workers: 2}, charged: stallCharge},
		// incr charges one unit of its own.
		{name: "fused-middle", cfg: Config{Mode: Real, Workers: 2}, middle: true, charged: stallCharge + 1},
	}
	// The watchdog starts with the first bounded run and then stays, parked
	// whenever no bounded run is in flight; start it before the baseline.
	warm := New(compile(t, "main(n) bsum(stall(n))", shadowOps(nil)), Config{OpTimeout: time.Second})
	if _, err := warm.Run(value.Int(-1)); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			gates := make([]chan struct{}, rounds)
			for i := range gates {
				gates[i] = make(chan struct{})
			}
			src, stalled, clean := "main(n) bsum(stall(n))", 0, value.Int(-1)
			switch {
			case leg.middle:
				// stall sees n+1.
				src, stalled, clean = "main(n) bsum(stall(incr(n)))", -1, value.Int(-2)
			case leg.counters:
				// stall sees n+2.
				src, stalled, clean = "main(n) bsum(stall(incr(incr(n))))", -2, value.Int(-3)
			}
			g := compile(t, src, shadowOps(gates))
			// What the stalled run dispatched: the serial unbounded run's
			// counts up to and including stall, i.e. all but bsum and the
			// charge stall makes only after its gate opens.
			var wantOps, wantOperators, wantCharged int64
			if leg.counters {
				ref := New(g, Config{Mode: Real, Workers: 1})
				if _, err := ref.Run(clean); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				st := ref.Stats()
				wantOps, wantOperators, wantCharged = st.OpsExecuted-1, st.OperatorsRun-1, st.ChargedUnits-stallCharge
			}
			cfg := leg.cfg
			cfg.MaxOps, cfg.OpTimeout, cfg.Trace = 100000, 20*time.Millisecond, true
			e := New(g, cfg)

			checkTimeout := func(i int, err error) {
				t.Helper()
				var re *RunError
				if !errors.As(err, &re) || re.Kind != FailTimeout || re.Op != "stall" || re.Attempts != 1 {
					t.Fatalf("round %d: err = %v, want RunError{FailTimeout, Op: stall, Attempts: 1}", i, err)
				}
			}
			checkClean := func(i int, v value.Value, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("round %d: clean rerun failed: %v", i, err)
				}
				if v != value.Float(16) {
					t.Errorf("round %d: rerun = %v, want 16", i, v)
				}
				st := e.Stats()
				if st.OpTimeouts != 0 {
					t.Errorf("round %d: stale OpTimeouts %d leaked into the reused run", i, st.OpTimeouts)
				}
				if st.ChargedUnits != leg.charged {
					t.Errorf("round %d: ChargedUnits = %d, want the clean run's own %d", i, st.ChargedUnits, leg.charged)
				}
				if st.Blocks.Allocated != st.Blocks.Freed {
					t.Errorf("round %d: reused run leaked: allocated %d, freed %d",
						i, st.Blocks.Allocated, st.Blocks.Freed)
				}
				if st.Blocks.Allocated == 0 {
					t.Errorf("round %d: reused run recorded no allocations; sink merge lost", i)
				}
			}

			for i := 0; i < rounds; i++ {
				arg := value.Int(i + stalled)
				if leg.many {
					// The batch's second run needs the pool's replacement for
					// the goroutine stuck in the first.
					res, err := e.RunMany(context.Background(), [][]value.Value{{arg}, {clean}})
					if err != nil {
						t.Fatalf("round %d: RunMany: %v", i, err)
					}
					checkTimeout(i, res[0].Err)
					checkClean(i, res[1].Value, res[1].Err)
					// Release the abandoned goroutine and race it against a
					// clean batch on the same engine.
					close(gates[i])
					res, err = e.RunMany(context.Background(), [][]value.Value{{clean}, {clean}})
					if err != nil {
						t.Fatalf("round %d: RunMany: %v", i, err)
					}
					checkClean(i, res[1].Value, res[1].Err)
					if err := e.Reset(); err != nil {
						t.Fatalf("round %d: Reset: %v", i, err)
					}
					continue
				}
				// Stalled run: stall parks on its gate and times out.
				_, err := e.Run(arg)
				checkTimeout(i, err)
				// The abandoned operator allocated its block against a private
				// sink, so the engine's accounting must balance despite the
				// goroutine still being parked inside the operator body.
				st := e.Stats()
				if st.Blocks.Allocated != st.Blocks.Freed {
					t.Fatalf("round %d: timed-out run leaked: allocated %d, freed %d",
						i, st.Blocks.Allocated, st.Blocks.Freed)
				}
				if st.OpTimeouts != 1 {
					t.Errorf("round %d: OpTimeouts = %d, want 1", i, st.OpTimeouts)
				}
				if leg.counters && (st.OpsExecuted != wantOps || st.OperatorsRun != wantOperators || st.ChargedUnits != wantCharged) {
					t.Errorf("round %d: ops/operators/charged = %d/%d/%d, want %d/%d/%d", i,
						st.OpsExecuted, st.OperatorsRun, st.ChargedUnits, wantOps, wantOperators, wantCharged)
				}
				checkBrackets(t, i, e)
				if err := e.Reset(); err != nil {
					t.Fatalf("round %d: Reset: %v", i, err)
				}
				// Release the abandoned goroutine and immediately race it against
				// a clean run of the reused engine. Its late publication must
				// lose the slot's CAS and be discarded.
				close(gates[i])
				v, err := e.Run(clean)
				checkClean(i, v, err)
				if err := e.Reset(); err != nil {
					t.Fatalf("round %d: second Reset: %v", i, err)
				}
			}
			settledGoroutines(t, base)
		})
	}
}

// TestShadowCancelPrompt: cancelling the run's context abandons an operator
// stalled under a long OpTimeout at once, at one worker (whose loop runs on a
// per-run goroutine) and at two — the watchdog takes the call over on the
// cancellation, not at the deadline.
func TestShadowCancelPrompt(t *testing.T) {
	for _, workers := range []int{1, 2} {
		gate := make(chan struct{})
		g := compile(t, "main(n) bsum(stall(n))", shadowOps([]chan struct{}{gate}))
		e := New(g, Config{Mode: Real, Workers: workers, MaxOps: 100000, OpTimeout: 5 * time.Second})
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		_, err := e.RunContext(ctx, value.Int(0))
		took := time.Since(start)
		close(gate)
		var re *RunError
		if !errors.As(err, &re) || re.Kind != FailCanceled || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want RunError{FailCanceled} wrapping context.Canceled", workers, err)
		}
		if took > 250*time.Millisecond {
			t.Errorf("workers=%d: canceled run returned after %v, want within 250ms", workers, took)
		}
		if st := e.Stats(); st.OpTimeouts != 0 || st.Blocks.Allocated != st.Blocks.Freed {
			t.Errorf("workers=%d: OpTimeouts %d (want 0), allocated %d, freed %d",
				workers, st.OpTimeouts, st.Blocks.Allocated, st.Blocks.Freed)
		}
	}
}

// TestWatchdogParksWhenIdle: the watchdog wakes while a bounded run is in
// flight and parks on its condition once none is, so an idle process has no
// ticking timer.
func TestWatchdogParksWhenIdle(t *testing.T) {
	gate := make(chan struct{})
	g := compile(t, "main(n) bsum(stall(n))", shadowOps([]chan struct{}{gate}))
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 100000, OpTimeout: 20 * time.Millisecond})
	before := dog.wakes.Load()
	if _, err := e.Run(value.Int(0)); err == nil {
		t.Fatal("stalled run succeeded; want a timeout")
	}
	close(gate)
	if dog.wakes.Load() == before {
		t.Error("watchdog never woke during a bounded run")
	}
	// At most one more wake-up (the tick in progress), then none.
	time.Sleep(maxTick + 50*time.Millisecond)
	idle := dog.wakes.Load()
	time.Sleep(50 * time.Millisecond)
	if n := dog.wakes.Load() - idle; n != 0 {
		t.Errorf("watchdog woke %d times with no bounded run in flight", n)
	}
}

// TestShadowCompletionAccounting pins the accept path: a block allocated
// inside a bounded (shadow) operator call that completes in time is counted
// on the call's private sink, which merges into the dispatching worker's
// shard on accept; its later release counts Freed where it happens, and the
// folded totals balance.
func TestShadowCompletionAccounting(t *testing.T) {
	g := compile(t, "main(n) bsum(stall(n))", shadowOps(nil))
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 100000,
		OpTimeout: 5 * time.Second})
	v, err := e.Run(value.Int(-1))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v != value.Float(16) {
		t.Errorf("result = %v, want 16", v)
	}
	st := e.Stats()
	if st.Blocks.Allocated == 0 {
		t.Fatal("no allocations recorded; shadow sink never merged")
	}
	if st.Blocks.Allocated != st.Blocks.Freed {
		t.Errorf("allocated %d, freed %d; the shadow's allocation was not merged on accept",
			st.Blocks.Allocated, st.Blocks.Freed)
	}
}
