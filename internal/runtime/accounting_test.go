package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/operator"
	"repro/internal/value"
)

// Block accounting is per worker: each worker counts into its own shard and
// folds it into Stats.Blocks as it leaves the run, and Freed is counted where
// the last reference drops. These tests pin the two cases where the shard
// that counted a block's Allocated is not the one that counts its Freed.

// checkShardsFolded fails the test unless the run balanced and every worker's
// shard was folded into Stats.Blocks (and zeroed) as the worker left it.
func checkShardsFolded(t *testing.T, round int, e *Engine) {
	t.Helper()
	st := e.Stats()
	if st.Blocks.Allocated == 0 || st.Blocks.Allocated != st.Blocks.Freed {
		t.Fatalf("round %d: allocated %d, freed %d; want equal and nonzero",
			round, st.Blocks.Allocated, st.Blocks.Freed)
	}
	for i := range e.workers {
		if sh := e.workers[i].shard; sh != (value.BlockStats{}) {
			t.Fatalf("round %d: worker slot %d left the run with an unfolded shard %+v", round, i, sh)
		}
	}
}

// TestCrossWorkerReleaseAccounting: mk allocates a block on one worker, eight
// readers of it run wherever the scheduler puts them, and the reader that
// holds the last reference frees the block in its own settle. A reader sees
// Refs() == 1 exactly when it is that last holder, so the test observes
// whether the free crossed workers; the run's folded totals must balance
// either way.
func TestCrossWorkerReleaseAccounting(t *testing.T) {
	var allocProc, crossed atomic.Int64
	r := operator.NewRegistry(operator.Builtins())
	r.MustRegister(&operator.Operator{
		Name: "mk", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			allocProc.Store(int64(ctx.Processor()))
			return value.NewBlockStats(make(value.FloatVec, 64), ctx.BlockStats()), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "rd", Arity: 2,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			b := args[0].(*value.Block)
			var s float64
			for k := 0; k < 2000; k++ { // enough work for peers to steal
				for _, x := range b.Data().(value.FloatVec) {
					s += x
				}
			}
			if b.Refs() == 1 && int64(ctx.Processor()) != allocProc.Load() {
				crossed.Add(1)
			}
			return value.Float(s + float64(args[1].(value.Int))), nil
		},
	})
	g := compile(t, `
main(n)
  let b = mk(n)
  in add(add(add(rd(b, 1), rd(b, 2)), add(rd(b, 3), rd(b, 4))),
         add(add(rd(b, 5), rd(b, 6)), add(rd(b, 7), rd(b, 8))))
`, r)
	e := New(g, Config{Mode: Real, Workers: 4})
	const rounds = 100
	for i := 0; i < rounds; i++ {
		v, err := e.Run(value.Int(i))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if v != value.Float(36) {
			t.Fatalf("round %d: result %v, want 36", i, v)
		}
		checkShardsFolded(t, i, e)
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if crossed.Load() == 0 {
		t.Skipf("no last release crossed workers in %d runs; the host never ran a reader off mk's worker", rounds)
	}
	t.Logf("%d of %d runs freed the block on a worker other than the allocating one", crossed.Load(), rounds)
}

// TestWatchdogFoldAccounting: a worker allocates a block in mk and then
// stalls inside a bounded operator that takes the block. The watchdog
// abandons the call, releases the block on the engine's sink and folds the
// stuck worker's shard, which holds mk's Allocated: without that fold the
// run would report a leak and the next run would inherit the count.
func TestWatchdogFoldAccounting(t *testing.T) {
	var mkProc, sameWorker atomic.Int64
	gates := make([]chan struct{}, 4)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	r := operator.NewRegistry(operator.Builtins())
	r.MustRegister(&operator.Operator{
		Name: "mk", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			mkProc.Store(int64(ctx.Processor()))
			return value.NewBlockStats(make(value.FloatVec, 8), ctx.BlockStats()), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "hold", Arity: 2,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			if int64(ctx.Processor()) == mkProc.Load() {
				sameWorker.Add(1)
			}
			if n := int(args[1].(value.Int)); n >= 0 {
				<-gates[n]
			}
			return value.Int(len(args[0].(*value.Block).Data().(value.FloatVec))), nil
		},
	})
	g := compile(t, "main(n) hold(mk(n), n)", r)
	e := New(g, Config{Mode: Real, Workers: 2, MaxOps: 100000, OpTimeout: 20 * time.Millisecond})
	for i := range gates {
		_, err := e.Run(value.Int(i))
		var re *RunError
		if !errors.As(err, &re) || re.Kind != FailTimeout {
			t.Fatalf("round %d: err = %v, want a FailTimeout RunError", i, err)
		}
		checkShardsFolded(t, i, e)
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		close(gates[i])
		// The reused engine runs clean beside the unwinding goroutine.
		if v, err := e.Run(value.Int(-1)); err != nil || v != value.Int(8) {
			t.Fatalf("round %d: clean rerun = %v, %v; want 8", i, v, err)
		}
		checkShardsFolded(t, i, e)
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if sameWorker.Load() == 0 {
		t.Logf("mk and hold never shared a worker; the abandoned shard held no allocation")
	}
}
