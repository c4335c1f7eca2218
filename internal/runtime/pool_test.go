package runtime

import (
	"errors"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/operator"
	"repro/internal/value"
)

// handOverOps extends planOps' pooled allocators with the operators of the
// pool hand-over suite, all bounded by timeout (zero leaves them unbounded).
// For n < 0 each returns at once; for n >= 0 each overruns its bound and
// keeps working until stop closes, after the watchdog has taken it over:
//
//   - hog(n) returns a pooled block of eight 2s and, overrunning, keeps
//     taking from and returning to the pool it sees through ctx.Pool();
//   - peek(b, n) sums b and, overrunning, keeps re-reading b's payload.
//
// hold(b, n) is unbounded: it sums b, first sleeping holdFor when n >= 0 so
// that it drops its reference to b after the watchdog dropped peek's.
func handOverOps(timeout time.Duration, stop chan struct{}) *operator.Registry {
	r := planOps()
	overrun := func(n value.Value, work func()) {
		if n.(value.Int) < 0 {
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			work()
			time.Sleep(50 * time.Microsecond)
		}
	}
	sum := func(v value.Value) (s float64) {
		for _, x := range v.(*value.Block).Data().(value.FloatVec) {
			s += x
		}
		return s
	}
	r.MustRegister(&operator.Operator{
		Name: "hog", Arity: 1, Timeout: timeout,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			vec := ctx.Pool().Floats(8)
			for i := range vec {
				vec[i] = 2
			}
			overrun(args[0], func() {
				p := ctx.Pool()
				scratch := p.Floats(8)
				scratch[0] = 1
				p.Put(scratch)
			})
			return value.NewBlockStats(vec, ctx.BlockStats()), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "peek", Arity: 2, Timeout: timeout,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s := sum(args[0])
			overrun(args[1], func() { s = sum(args[0]) })
			return value.Float(s), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "hold", Arity: 2,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			if args[1].(value.Int) >= 0 {
				time.Sleep(holdFor)
			}
			return value.Float(sum(args[0])), nil
		},
	})
	return r
}

const holdFor = 80 * time.Millisecond

// TestPoolAbandonedCallHandOver is the safety test of the block-pool
// hand-over. A bounded call borrows its worker's pool; when the watchdog
// abandons the call, the worker gets a fresh pool and the stuck goroutine
// keeps the old one. Each round times out a run, Resets the engine, and
// re-runs it clean twice while the abandoned goroutine keeps working:
//
//   - the own-pool legs' hog keeps allocating from and recycling to the pool
//     it borrowed, while the clean runs' pooled loop allocates from and
//     recycles to the same worker's new pool;
//   - the shared-input leg's peek keeps reading a block that hold, on the
//     other worker, frees after the watchdog released peek's reference:
//     that block must not be recycled while the stuck goroutine reads it.
//
// Under -race any pool or payload the two goroutines share is a data race.
// Every run balances Allocated == Freed, every clean run equals an unbounded
// engine's result, and once stop closes every goroutine the legs started
// is gone again.
func TestPoolAbandonedCallHandOver(t *testing.T) {
	const (
		rounds  = 3
		timeout = 20 * time.Millisecond
	)
	const ownPool = `
main(n) add(blocksum(hog(n)), spin(10))

spin(k)
  iterate
  {
    i = 0, incr(i)
    total = 0.0, add(total, blocksum(pfill(pmkblock(8), i)))
  } while lt(i, k),
  result total
`
	const sharedInput = `
main(n)
  let b = pfill(pmkblock(8), 3)
  in add(peek(b, n), hold(b, n))
`
	legs := []struct {
		name, src, op string
		workers       int
	}{
		{"own-pool-1", ownPool, "hog", 1},
		{"own-pool-2", ownPool, "hog", 2},
		{"shared-input", sharedInput, "peek", 2},
	}
	// The watchdog starts with the first bounded run and then stays; start
	// it before the baseline.
	never := make(chan struct{})
	warm := New(compile(t, ownPool, handOverOps(time.Second, never)), Config{Mode: Real, Workers: 1})
	if _, err := warm.Run(value.Int(-1)); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			stop := make(chan struct{})
			clean := value.Int(-1)
			want, err := New(compile(t, leg.src, handOverOps(0, stop)),
				Config{Mode: Real, Workers: leg.workers}).Run(clean)
			if err != nil {
				t.Fatalf("unbounded run: %v", err)
			}
			e := New(compile(t, leg.src, handOverOps(timeout, stop)),
				Config{Mode: Real, Workers: leg.workers, MaxOps: 100000})
			balanced := func(what string, i int) *Stats {
				t.Helper()
				st := e.Stats()
				if st.Blocks.Allocated != st.Blocks.Freed {
					t.Errorf("round %d: %s run: allocated %d, freed %d", i, what, st.Blocks.Allocated, st.Blocks.Freed)
				}
				if st.PooledAllocs > st.Blocks.Allocated {
					t.Errorf("round %d: %s run: PooledAllocs %d exceeds Allocated %d", i, what, st.PooledAllocs, st.Blocks.Allocated)
				}
				return st
			}
			for i := 0; i < rounds; i++ {
				_, err := e.Run(value.Int(i))
				var re *RunError
				if !errors.As(err, &re) || re.Kind != FailTimeout || re.Op != leg.op {
					t.Fatalf("round %d: err = %v, want RunError{FailTimeout, Op: %s}", i, err, leg.op)
				}
				balanced("timed-out", i)
				for j := 0; j < 2; j++ {
					if err := e.Reset(); err != nil {
						t.Fatalf("round %d: Reset: %v", i, err)
					}
					got, err := e.Run(clean)
					if err != nil {
						t.Fatalf("round %d: clean run: %v", i, err)
					}
					if got != want {
						t.Errorf("round %d: clean run = %v, want the unbounded engine's %v", i, got, want)
					}
					if st := balanced("clean", i); leg.op == "hog" && st.PooledAllocs == 0 {
						t.Errorf("round %d: clean run pooled nothing; want the pooled loop served from the worker's pool", i)
					}
				}
				if err := e.Reset(); err != nil {
					t.Fatalf("round %d: Reset: %v", i, err)
				}
			}
			close(stop)
			settledGoroutines(t, base)
		})
	}
}
