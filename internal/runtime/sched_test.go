package runtime

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/operator"
	"repro/internal/trace"
	"repro/internal/value"
)

func TestStealSchedulerOrder(t *testing.T) {
	// A worker pops its own deque LIFO — its own pushes and the boot
	// worker's seeds alike — and steals a victim's oldest task first. The
	// nodes are of the three kinds the simulated machine puts on three
	// priority levels; a Real worker has one deque and ignores the kind.
	tmpl := &graph.Template{Name: "seeded", Nodes: []*graph.Node{
		{ID: 0, Kind: graph.CallNode, Name: "recursive", Callee: &graph.Template{Recursive: true}},
		{ID: 1, Kind: graph.CondNode, Name: "call"},
		{ID: 2, Kind: graph.OpNode, Name: "normal"},
	}}
	prog := &graph.Program{Templates: map[string]*graph.Template{"main": tmpl}, Main: tmpl}
	graph.Number(prog)
	e := New(prog, Config{Mode: Real, Workers: 2})
	s := newStealScheduler(2, &e.stats, nil)
	lifo := []string{"normal", "call", "recursive"}
	for _, tier := range []struct {
		name string
		push func(*graph.Node)
		want []string
	}{
		{"local", func(n *graph.Node) { s.pushLocal(0, &task{node: n}) }, lifo},
		{"seeded", func(n *graph.Node) {
			// The boot worker pushes through the scheduler before any
			// worker runs; the task lands in its activation slot.
			s.push(e.worker(-1, s), newActivation(tmpl), n)
		}, lifo},
		{"victim", func(n *graph.Node) { s.pushLocal(1, &task{node: n}) },
			[]string{"recursive", "call", "normal"}},
	} {
		for _, n := range tmpl.Nodes {
			tier.push(n)
		}
		for _, w := range tier.want {
			tk := s.find(0)
			if tk == nil || tk.node.Name != w {
				t.Fatalf("%s tier: find = %v, want %s", tier.name, tk, w)
			}
			if tier.name == "seeded" && tk.from != -1 {
				t.Fatalf("seeded tier: task from = %d, want -1 (the boot worker)", tk.from)
			}
		}
		if tk := s.find(0); tk != nil {
			t.Fatalf("%s tier: unexpected extra task %v", tier.name, tk)
		}
	}
	if e.stats.Steals != 3 {
		t.Errorf("Steals = %d, want 3 (victim tier)", e.stats.Steals)
	}
	if e.stats.InjectedTasks != 3 {
		t.Errorf("InjectedTasks = %d, want 3 (seeded tier)", e.stats.InjectedTasks)
	}
}

func TestWSDequeLIFOOwnerFIFOThief(t *testing.T) {
	var d wsDeque
	d.init()
	mk := func(name string) *task { return &task{node: &graph.Node{Name: name}} }
	d.push(mk("a"))
	d.push(mk("b"))
	d.push(mk("c"))
	if tk := d.pop(); tk == nil || tk.node.Name != "c" {
		t.Fatalf("owner pop = %v, want LIFO c", tk)
	}
	if tk, _ := d.steal(); tk == nil || tk.node.Name != "a" {
		t.Fatalf("steal = %v, want FIFO a", tk)
	}
	if tk := d.pop(); tk == nil || tk.node.Name != "b" {
		t.Fatalf("owner pop = %v, want b", tk)
	}
	if tk := d.pop(); tk != nil {
		t.Fatalf("pop from empty = %v", tk)
	}
	if tk, retry := d.steal(); tk != nil || retry {
		t.Fatalf("steal from empty = %v/%v", tk, retry)
	}
}

func TestWSDequeGrowth(t *testing.T) {
	var d wsDeque
	d.init()
	const n = wsInitialSize*4 + 7
	for i := 0; i < n; i++ {
		d.push(&task{node: &graph.Node{ID: i}})
	}
	// Steal half FIFO, pop the rest LIFO; every task seen exactly once.
	seen := make(map[int]bool, n)
	for i := 0; i < n/2; i++ {
		tk, _ := d.steal()
		if tk == nil {
			t.Fatalf("steal %d failed", i)
		}
		if tk.node.ID != i {
			t.Fatalf("steal %d = node %d, want FIFO order", i, tk.node.ID)
		}
		seen[tk.node.ID] = true
	}
	for {
		tk := d.pop()
		if tk == nil {
			break
		}
		if seen[tk.node.ID] {
			t.Fatalf("node %d drained twice", tk.node.ID)
		}
		seen[tk.node.ID] = true
	}
	if len(seen) != n {
		t.Errorf("drained %d tasks, want %d", len(seen), n)
	}
}

func TestWSDequeConcurrentStealers(t *testing.T) {
	// One owner pushes and pops while thieves hammer steal: every task is
	// claimed exactly once and none is lost.
	const total = 20000
	var d wsDeque
	d.init()
	counts := make([]int32, total)
	var claimed int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tk, retry := d.steal()
				if tk != nil {
					atomic.AddInt32(&counts[tk.node.ID], 1)
					atomic.AddInt64(&claimed, 1)
					continue
				}
				if !retry {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		d.push(&task{node: &graph.Node{ID: i}})
		if i%3 == 0 {
			if tk := d.pop(); tk != nil {
				atomic.AddInt32(&counts[tk.node.ID], 1)
				atomic.AddInt64(&claimed, 1)
			}
		}
	}
	for atomic.LoadInt64(&claimed) < total {
		if tk := d.pop(); tk != nil {
			atomic.AddInt32(&counts[tk.node.ID], 1)
			atomic.AddInt64(&claimed, 1)
		}
	}
	close(stop)
	wg.Wait()
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("task %d claimed %d times", id, c)
		}
	}
}

func TestStealSchedulerCloseWakesParked(t *testing.T) {
	var stats Stats
	s := newStealScheduler(4, &stats, nil)
	var wg sync.WaitGroup
	for w := 1; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if s.closed.Load() {
					return
				}
				if tk := s.find(w); tk == nil {
					s.park(w)
				}
			}
		}(w)
	}
	s.close()
	wg.Wait() // deadlocks here (test timeout) if close loses a parked worker
	if tk := s.find(0); tk != nil {
		t.Errorf("found task in empty closed scheduler: %v", tk)
	}
}

func TestStealSchedulerNotifyReachesParked(t *testing.T) {
	// A worker parks; a push from another worker must wake it.
	var stats Stats
	s := newStealScheduler(2, &stats, nil)
	got := make(chan *task, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if tk := s.find(1); tk != nil {
				got <- tk
				return
			}
			if s.closed.Load() {
				return
			}
			s.park(1)
		}
	}()
	s.pushLocal(0, &task{node: &graph.Node{Name: "wake"}})
	tk := <-got
	if tk.node.Name != "wake" {
		t.Fatalf("woke with %v", tk)
	}
	s.close()
	wg.Wait()
}

// heavyOpsRegistry registers distinct named heavy operators so the
// affinity policies have something to place.
func heavyOpsRegistry() *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())
	r.MustRegister(&operator.Operator{
		Name: "grind", Arity: 1, Pure: false,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			ctx.Charge(5000)
			if b, ok := args[0].(*value.Block); ok {
				vec := b.Data().(value.FloatVec)
				var s float64
				for _, x := range vec {
					s += x
				}
				return value.Float(s), nil
			}
			return args[0], nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "bigblock", Arity: 0,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			ctx.Charge(10)
			return value.NewBlockStats(make(value.FloatVec, 4096), ctx.BlockStats()), nil
		},
	})
	return r
}

func TestOperatorAffinityKeepsOperatorHome(t *testing.T) {
	// A chain of invocations of the same operator should stay on one
	// processor under AffinityOperator when nothing else competes.
	src := `
main(x)
  iterate { i = 0, incr(i)
            v = x, grind(v) } while lt(i, 6), result v
`
	g := compile(t, src, heavyOpsRegistry())
	e := New(g, Config{Mode: Simulated, Workers: 4, Machine: machine.Butterfly().WithProcs(4),
		Affinity: AffinityOperator, Timing: true, MaxOps: 100000})
	if _, err := e.Run(value.Int(1)); err != nil {
		t.Fatal(err)
	}
	procs := make(map[int]bool)
	for _, entry := range e.Timing().Entries() {
		if entry.Name == "grind" {
			procs[entry.Proc] = true
		}
	}
	if len(procs) != 1 {
		t.Errorf("grind ran on %d processors under operator affinity, want 1", len(procs))
	}
}

func TestDataAffinityFollowsBlock(t *testing.T) {
	// Under the data policy, successive operators touching the same large
	// block run on its home processor, eliminating remote traffic after
	// the first touch.
	src := `
main()
  let b = bigblock()
      s1 = grind(b)
      b2 = bigblock()
  in add(s1, grind(b2))
`
	run := func(pol AffinityPolicy) int64 {
		g := compile(t, src, heavyOpsRegistry())
		e := New(g, Config{Mode: Simulated, Workers: 4,
			Machine: machine.Butterfly().WithProcs(4), Affinity: pol, MaxOps: 100000})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Stats().MemoryTicks
	}
	if none, data := run(AffinityNone), run(AffinityData); data > none {
		t.Errorf("data affinity increased memory ticks: %d vs %d", data, none)
	}
}

// TestSimulatedCopyInheritsPlacement: §9.3's data affinity is the simulated
// executor's placement table, not a word in the block header, and a copy — a
// copy-on-write at a destructive operator or a retry attempt's snapshot — is
// placed where its source is. A source with no placement gives its copy none,
// and a Real-mode worker keeps no table at all.
func TestSimulatedCopyInheritsPlacement(t *testing.T) {
	e := &Engine{cfg: Config{Mode: Simulated, Workers: 2}}
	s := newSimScheduler(e, 2)
	w := &worker{e: e, q: s}
	shared := func() *value.Block {
		b := value.NewBlock(value.FloatVec{1, 2})
		b.Retain(nil) // a second consumer holds a reference
		return b
	}

	src := shared()
	s.home[src] = 1
	cp, words := w.makeWritable(src)
	if cp == value.Value(src) || words != 2 {
		t.Fatalf("makeWritable on a shared block: same=%v words=%d, want a 2-word copy", cp == value.Value(src), words)
	}
	if p, ok := s.home[cp.(*value.Block)]; !ok || p != 1 {
		t.Errorf("copy-on-write copy placed at %d (placed=%v), want inherited 1", p, ok)
	}
	var snaps int64
	snap, _ := w.snapshotValue(value.Tuple{src}, &snaps)
	if p, ok := s.home[snap.(value.Tuple)[0].(*value.Block)]; !ok || p != 1 || snaps != 1 {
		t.Errorf("retry snapshot placed at %d (placed=%v, %d copies), want inherited 1 and one copy", p, ok, snaps)
	}

	unplaced := shared()
	cp, _ = w.makeWritable(unplaced)
	if p, ok := s.home[cp.(*value.Block)]; ok {
		t.Errorf("copy of an unplaced block placed at %d, want no placement", p)
	}

	rw := &worker{e: &Engine{}}
	if cp, _ := rw.makeWritable(shared()); !cp.(*value.Block).Exclusive() {
		t.Error("Real-mode makeWritable returned a shared block")
	}
	if got := w.shard.Copies + rw.shard.Copies; got != 3 {
		t.Errorf("shards counted %d copies, want 3", got)
	}
}

func TestSimulatedUtilizationBounds(t *testing.T) {
	g := compile(t, `
main(x)
  let a = grind(x)
      b = grind(incr(x))
      c = grind(add(x, 2))
      d = grind(add(x, 3))
  in add(add(a, b), add(c, d))
`, heavyOpsRegistry())
	e := New(g, Config{Mode: Simulated, Workers: 4, MaxOps: 100000})
	if _, err := e.Run(value.Int(1)); err != nil {
		t.Fatal(err)
	}
	u := e.Stats().Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want (0, 1]", u)
	}
	if e.Stats().MakespanTicks < e.Stats().BusyTicks/4 {
		t.Error("makespan below busy/procs: scheduler accounting broken")
	}
}

func TestSimulatedRespectsPriorities(t *testing.T) {
	// With priorities disabled the same program still computes the same
	// value (only scheduling changes).
	src := `
fib(n) if lt(n, 2) then n else add(fib(sub(n,1)), fib(sub(n,2)))
main(n) fib(n)
`
	g := compile(t, src, nil)
	var vals []value.Value
	for _, disable := range []bool{false, true} {
		e := New(g, Config{Mode: Simulated, Workers: 2, DisablePriorities: disable, MaxOps: 1000000})
		v, err := e.Run(value.Int(12))
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	if !value.Equal(vals[0], vals[1]) {
		t.Errorf("priority setting changed the result: %v vs %v", vals[0], vals[1])
	}
}

func TestWorkersDefaultFromMachine(t *testing.T) {
	cfg := Config{Machine: machine.Butterfly()}
	if cfg.workers() != machine.Butterfly().Procs {
		t.Errorf("workers() = %d, want machine's %d", cfg.workers(), machine.Butterfly().Procs)
	}
	if (Config{}).workers() != 1 {
		t.Error("bare config should default to 1 worker")
	}
	if (Config{Workers: 3}).workers() != 3 {
		t.Error("explicit workers ignored")
	}
}

func TestEngineStatsActivationAccounting(t *testing.T) {
	g := compile(t, `
f(x) add(x, 1)
main(n)
  iterate { i = 0, f(i) } while lt(i, n), result i
`, nil)
	e := New(g, Config{Mode: Real, Workers: 1})
	if _, err := e.Run(value.Int(100)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.LiveActivations != 0 {
		t.Errorf("LiveActivations = %d after completion, want 0", st.LiveActivations)
	}
	if st.ActivationsReused == 0 {
		t.Error("loop should reuse pooled activations")
	}
	if st.PeakLive <= 0 {
		t.Error("PeakLive not tracked")
	}
}

func TestGanttRendering(t *testing.T) {
	g := compile(t, `
main(x)
  let a = grind(x)
      b = grind(incr(x))
  in add(a, b)
`, heavyOpsRegistry())
	e := New(g, Config{Mode: Simulated, Workers: 2, Timing: true, MaxOps: 100000})
	if _, err := e.Run(value.Int(1)); err != nil {
		t.Fatal(err)
	}
	gantt := e.Timing().Gantt(60)
	if !strings.Contains(gantt, "proc  0 |") || !strings.Contains(gantt, "proc  1 |") {
		t.Errorf("gantt rows missing:\n%s", gantt)
	}
	if !strings.Contains(gantt, "grind") && !strings.Contains(gantt, "gri") {
		t.Errorf("gantt labels missing:\n%s", gantt)
	}
	loads := e.Timing().ProcLoads()
	if len(loads) != 2 {
		t.Fatalf("loads = %v", loads)
	}
	// The two grinds run one per processor: loads roughly equal.
	hi, lo := loads[0], loads[1]
	if hi < lo {
		hi, lo = lo, hi
	}
	if lo == 0 || float64(hi)/float64(lo) > 1.5 {
		t.Errorf("unbalanced loads %v for symmetric program", loads)
	}
	if out := trace.NewTimingLog(nil).Gantt(40); !strings.Contains(out, "no timing entries") {
		t.Errorf("empty gantt = %q", out)
	}
}

// TestDeadlockDetection feeds the engine a deliberately broken template —
// a node whose input port is never fed — and checks both executors report
// a deadlock instead of hanging. (The compiler can never emit such a
// graph; Validate rejects it. The runtime still refuses to hang.)
func TestDeadlockDetection(t *testing.T) {
	inc, _ := operator.Builtins().Lookup("incr")
	tmpl := &graph.Template{Name: "broken"}
	tmpl.Nodes = []*graph.Node{
		{ID: 0, Kind: graph.ConstNode, Const: value.Int(1), Out: []graph.Edge{{To: 1, Port: 0}}},
		{ID: 1, Kind: graph.OpNode, Name: "incr", Op: inc, NIn: 1},
		{ID: 2, Kind: graph.OpNode, Name: "incr", Op: inc, NIn: 1}, // never fed
	}
	tmpl.Result = 2
	prog := &graph.Program{Templates: map[string]*graph.Template{"main": tmpl}, Main: tmpl}
	graph.Number(prog)
	for _, mode := range []Mode{Real, Simulated} {
		e := New(prog, Config{Mode: mode, Workers: 2, MaxOps: 1000})
		_, err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "deadlocked") {
			t.Errorf("mode %v: err = %v, want deadlock report", mode, err)
		}
	}
}

// TestNoResultDetection covers the sibling failure: a graph whose nodes
// all complete during seeding without ever producing a result.
func TestNoResultDetection(t *testing.T) {
	tmpl := &graph.Template{Name: "silent"}
	tmpl.Nodes = []*graph.Node{
		{ID: 0, Kind: graph.ConstNode, Const: value.Int(1)},
		{ID: 1, Kind: graph.OpNode, Name: "x", NIn: 1, Op: &operator.Operator{
			Name: "x", Arity: 1,
			Fn: func(operator.Context, []value.Value) (value.Value, error) {
				return value.Int(0), nil
			}}}, // result node, never fed
	}
	tmpl.Result = 1
	prog := &graph.Program{Templates: map[string]*graph.Template{"main": tmpl}, Main: tmpl}
	graph.Number(prog)
	e := New(prog, Config{Mode: Real, Workers: 1})
	if _, err := e.Run(); err == nil {
		t.Error("expected failure for silent graph")
	}
}
