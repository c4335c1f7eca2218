package runtime

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/trace"
	"repro/internal/value"
)

// blockTreeSrc is a block-carrying recursive fan-out: every leaf allocates
// a fresh block, destructively fills it (retryable — a fault target), and
// folds the blocks' sums upward in a fixed graph shape, so the float
// result is bit-identical iff every block was filled and read correctly.
const blockTreeSrc = `
tree(n)
  if is_equal(n, 0)
  then blocksum(rfill(mkblock(4), 1))
  else add(tree(sub(n, 1)), add(tree(sub(n, 1)), blocksum(rfill(mkblock(8), n))))

main(n) tree(n)
`

// compileBlockTree builds blockTreeSrc.
func compileBlockTree(t *testing.T) *graph.Program {
	t.Helper()
	return compile(t, blockTreeSrc, faultOps())
}

// TestDeepNonTailRecursion exercises the continuation chain: a non-tail
// recursive sum builds thousands of nested activations which unwind
// through complete()'s iterative bubbling.
func TestDeepNonTailRecursion(t *testing.T) {
	src := `
sumdown(n) if is_equal(n, 0) then 0 else add(n, sumdown(sub(n, 1)))
main(n) sumdown(n)
`
	g := compile(t, src, nil)
	const n = 4000
	for name, cfg := range configs() {
		cfg.MaxOps = 10_000_000
		e := New(g, cfg)
		v, err := e.Run(value.Int(n))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v != value.Int(n*(n+1)/2) {
			t.Errorf("%s: sumdown(%d) = %v", name, n, v)
		}
	}
}

// TestWideFanOut runs a single value into a very wide fork (256 consumers)
// and joins the results, exercising fan-out retention and the ready queue
// under burst load.
func TestWideFanOut(t *testing.T) {
	const width = 256
	var b strings.Builder
	b.WriteString("main(x)\n  let ")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "v%d = mul(x, %d)\n      ", i, i)
	}
	b.WriteString("total = 0\n  in ")
	expr := "v0"
	for i := 1; i < width; i++ {
		expr = fmt.Sprintf("add(%s, v%d)", expr, i)
	}
	b.WriteString(expr)
	g := compile(t, b.String(), nil)
	want := value.Int(0)
	for i := 0; i < width; i++ {
		want += value.Int(3 * i)
	}
	for name, cfg := range configs() {
		e := New(g, cfg)
		v, err := e.Run(value.Int(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v != want {
			t.Errorf("%s: got %v, want %v", name, v, want)
		}
	}
}

// TestLongLoopManyWorkers stresses activation pooling under contention:
// a million-iteration loop shared by 8 workers.
func TestLongLoopManyWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src := `
main(n)
  iterate { i = 0, incr(i) } while lt(i, n), result i
`
	g := compile(t, src, nil)
	e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 50_000_000})
	const n = 200_000
	v, err := e.Run(value.Int(n))
	if err != nil {
		t.Fatal(err)
	}
	if v != value.Int(n) {
		t.Fatalf("got %v", v)
	}
	if e.Stats().PeakLive > 100 {
		t.Errorf("PeakLive = %d for a simple loop", e.Stats().PeakLive)
	}
}

// TestRecursiveFanOutTree runs a bushy recursion (quad tree of depth 6),
// mixing recursive expansions with fan-out joins at every level.
func TestRecursiveFanOutTree(t *testing.T) {
	src := `
tree(d)
  if is_equal(d, 0)
    then 1
    else let a = tree(sub(d, 1))
             b = tree(sub(d, 1))
             c = tree(sub(d, 1))
             e = tree(sub(d, 1))
         in add(add(a, b), add(c, e))
main(d) tree(d)
`
	g := compile(t, src, nil)
	for name, cfg := range configs() {
		cfg.MaxOps = 10_000_000
		e := New(g, cfg)
		v, err := e.Run(value.Int(6))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v != value.Int(4096) { // 4^6
			t.Errorf("%s: tree(6) = %v, want 4096", name, v)
		}
	}
}

// TestOperatorPanicManyWorkers aborts a wide 8-worker run by panicking in
// an operator once enough parallel work is in flight. The engine must
// convert the panic into an error, wake every parked worker, and return —
// a hang here means the abort path lost a parker wakeup.
func TestOperatorPanicManyWorkers(t *testing.T) {
	reg := operator.NewRegistry(operator.Builtins())
	var fired atomic.Int64
	reg.MustRegister(&operator.Operator{
		Name: "boom_after", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			if fired.Add(1) == 200 {
				panic("kaboom")
			}
			return args[0], nil
		},
	})
	src := `
spin(n) if is_equal(n, 0) then 0 else add(boom_after(n), spin(sub(n, 1)))
main(n)
  let a = spin(n)
      b = spin(n)
      c = spin(n)
      d = spin(n)
  in add(add(a, b), add(c, d))
`
	g := compile(t, src, reg)
	e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 10_000_000})
	_, err := e.Run(value.Int(200))
	if err == nil || !strings.Contains(err.Error(), "operator panicked") {
		t.Fatalf("err = %v, want operator panic diagnostic", err)
	}
}

// TestMaxOpsExceededMidRun exhausts the operation budget in the middle of
// an 8-worker run; every worker must observe the abort and exit.
func TestMaxOpsExceededMidRun(t *testing.T) {
	src := `
main(n)
  iterate { i = 0, incr(i) } while lt(i, n), result i
`
	g := compile(t, src, nil)
	e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 500})
	_, err := e.Run(value.Int(1_000_000))
	if err == nil || !strings.Contains(err.Error(), "operation budget") {
		t.Fatalf("err = %v, want budget diagnostic", err)
	}
}

// TestBudgetExceededOnEveryWorkerFreesBlocks: once the budget is spent every
// worker's next dispatch fails, not only the first to notice — and each
// failing node was already taken off the queue with its inputs buffered in
// its activation. The teardown must sweep every one of those activations,
// or the later failures' blocks leak.
func TestBudgetExceededOnEveryWorkerFreesBlocks(t *testing.T) {
	g := compile(t, blockTreeSrc, faultOps())
	for i := 0; i < 200; i++ {
		e := New(g, Config{Mode: Real, Workers: 4, MaxOps: int64(300 + 7*i)})
		_, err := e.Run(value.Int(9))
		if err == nil || !strings.Contains(err.Error(), "operation budget") {
			t.Fatalf("run %d: err = %v, want budget diagnostic", i, err)
		}
		if st := e.Stats().Blocks; st.Allocated != st.Freed {
			t.Fatalf("run %d: failed run leaked: allocated %d, freed %d", i, st.Allocated, st.Freed)
		}
	}
}

// TestStealParkStress drives the stealing and parking paths hard under the
// race detector: a bushy recursion floods the producing workers' deques
// (forcing steals even on a single-CPU host, where thieves only run at
// preemption points) and a sequential tail of blocking operators idles the
// whole pool (forcing parks — while one worker sleeps inside nap, the
// other seven find nothing and must go to sleep rather than burn CPU).
// Retries tolerate a freakishly quiet schedule; across attempts the
// counters must both fire.
func TestStealParkStress(t *testing.T) {
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{
		Name: "nap", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			time.Sleep(3 * time.Millisecond)
			return args[0], nil
		},
	})
	src := `
tree(d)
  if is_equal(d, 0)
    then 1
    else add(add(tree(sub(d, 1)), tree(sub(d, 1))),
             add(tree(sub(d, 1)), tree(sub(d, 1))))
main(d) nap(nap(nap(tree(d))))
`
	g := compile(t, src, reg)
	// The tasks seeding makes runnable: every one of them is a boot-worker
	// push at any worker count, so a one-worker run counts them too.
	probe := New(g, Config{Mode: Real, Workers: 1, MaxOps: 10_000_000})
	if _, err := probe.Run(value.Int(7)); err != nil {
		t.Fatal(err)
	}
	seeded := probe.Stats().InjectedTasks
	if seeded == 0 {
		t.Fatal("seeding made nothing runnable")
	}
	var sawSteal, sawPark bool
	for attempt := 0; attempt < 5 && !(sawSteal && sawPark); attempt++ {
		e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 10_000_000})
		v, err := e.Run(value.Int(7))
		if err != nil {
			t.Fatal(err)
		}
		if v != value.Int(16384) { // 4^7
			t.Fatalf("got %v, want 16384", v)
		}
		st := e.Stats()
		sawSteal = sawSteal || st.Steals > 0
		sawPark = sawPark || st.Parks > 0
		if st.InjectedTasks != seeded {
			t.Errorf("InjectedTasks = %d, want the %d seeded tasks", st.InjectedTasks, seeded)
		}
	}
	if !sawSteal {
		t.Error("no steals recorded across 5 bushy 8-worker runs")
	}
	if !sawPark {
		t.Error("no parks recorded across 5 runs with a blocking tail")
	}
}

// TestManySmallRunsReusePools verifies engines are independent: hundreds
// of runs of the same program from fresh engines, interleaved worker
// counts, all agreeing.
func TestManySmallRunsReusePools(t *testing.T) {
	g := compile(t, `
f(a, b) add(mul(a, a), b)
main(x) f(f(x, 1), f(x, 2))
`, nil)
	var want value.Value
	for i := 0; i < 200; i++ {
		e := New(g, Config{Mode: Real, Workers: 1 + i%4})
		v, err := e.Run(value.Int(int64(i % 7)))
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if want == nil {
				want = v
			} else if !value.Equal(v, want) {
				t.Fatalf("run %d: %v != %v", i, v, want)
			}
		}
	}
}

// TestBlockTreeRepeatedRuns hammers the stealing pool on the block tree:
// many workers, wide fan-out, a fresh engine each run, every run
// bit-identical and leak-free.
func TestBlockTreeRepeatedRuns(t *testing.T) {
	g := compileBlockTree(t)
	var ref string
	for i := 0; i < 5; i++ {
		e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 5_000_000})
		v, err := e.Run(value.Int(8))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v", v)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("run %d diverged: %s vs %s", i, got, ref)
		}
		st := e.Stats()
		if st.Blocks.Allocated != st.Blocks.Freed {
			t.Fatalf("run %d: leak: allocated %d freed %d", i, st.Blocks.Allocated, st.Blocks.Freed)
		}
	}
}

// TestExecutorParity pins what the single dispatch step guarantees in every
// mode: the same program does the same work and
// logs the same operator executions on one and on several work-stealing
// workers and on the simulated machine, every opened trace slice is
// closed — on a run that fails mid-way too — and no block leaks.
func TestExecutorParity(t *testing.T) {
	g := compileBlockTree(t)
	type entry struct{ name, tmpl string }
	var refOps [6]int64
	var refLog map[entry]int
	for _, fail := range []bool{false, true} {
		for i, cfg := range []Config{
			{Mode: Real, Workers: 1},
			{Mode: Real, Workers: 2},
			{Mode: Real, Workers: 8},
			{Mode: Simulated, Workers: 4},
		} {
			name := fmt.Sprintf("fail=%v/mode=%d/w%d", fail, cfg.Mode, cfg.Workers)
			cfg.MaxOps, cfg.Timing, cfg.Trace = 5_000_000, true, true
			if fail {
				cfg.Faults = NewFaultPlan(Fault{Op: "rfill", Execution: 20, Kind: FaultError})
			}
			e := New(g, cfg)
			_, err := e.Run(value.Int(6))
			if (err != nil) != fail {
				t.Fatalf("%s: err = %v", name, err)
			}
			st := e.Stats()
			if st.Blocks.Allocated != st.Blocks.Freed {
				t.Errorf("%s: block leak: allocated %d freed %d", name, st.Blocks.Allocated, st.Blocks.Freed)
			}
			var starts, ends int
			for _, buf := range e.Trace().Events {
				for _, ev := range buf {
					switch ev.Type {
					case trace.NodeStart:
						starts++
					case trace.NodeEnd:
						ends++
					}
				}
			}
			if starts == 0 || starts != ends {
				t.Errorf("%s: %d node starts, %d node ends", name, starts, ends)
			}
			if fail {
				continue
			}
			// A fresh engine acquires one activation per expansion plus the
			// root; which acquisitions find a recycled one depends on the
			// schedule, so only their sum is pinned.
			ops := [6]int64{st.OpsExecuted, st.OperatorsRun, st.ChargedUnits, st.TailCalls,
				st.PooledAllocs, st.ActivationsAllocated + st.ActivationsReused}
			log := make(map[entry]int)
			for _, en := range e.Timing().Entries() {
				log[entry{en.Name, en.Template}]++
			}
			if i == 0 {
				refOps, refLog = ops, log
				continue
			}
			if ops != refOps {
				t.Errorf("%s: ops/operators/charged/tail/pooled/activations = %v, serial run had %v",
					name, ops, refOps)
			}
			if !reflect.DeepEqual(log, refLog) {
				t.Errorf("%s: timing log differs from the serial run's:\n got %v\nwant %v", name, log, refLog)
			}
		}
	}
}
