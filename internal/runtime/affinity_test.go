package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/value"
)

// affinitySrc is a block-carrying recursive fan-out: every leaf allocates
// a fresh block, destructively fills it (retryable — a fault target), and
// folds the blocks' sums upward in a fixed graph shape, so the float
// result is bit-identical iff every block was filled and read correctly.
const affinitySrc = `
tree(n)
  if is_equal(n, 0)
  then blocksum(rfill(mkblock(4), 1))
  else add(tree(sub(n, 1)), add(tree(sub(n, 1)), blocksum(rfill(mkblock(8), n))))

main(n) tree(n)
`

// compileAffinity builds affinitySrc with the full optimizing pipeline in
// compile-driver order (memplan -> fuse -> affinity plan).
func compileAffinity(t *testing.T) *graph.Program {
	t.Helper()
	g := compile(t, affinitySrc, faultOps())
	opt.PlanMemory(g)
	opt.FuseGraph(g, nil)
	opt.PlanAffinity(g)
	if !g.AffinityPlanned {
		t.Fatal("AffinityPlanned not set")
	}
	return g
}

// TestAffinityBitIdentity is the tentpole's advisory-only guarantee: with
// the affinity plan compiled in, results are bit-identical across 1/2/8
// workers with hints on and off, composed with fusion, the memory plan,
// and seeded faults under retry.
func TestAffinityBitIdentity(t *testing.T) {
	g := compileAffinity(t)
	var ref string
	for _, workers := range []int{1, 2, 8} {
		for _, hints := range []bool{false, true} {
			name := fmt.Sprintf("w%d/hints=%v", workers, hints)
			cfg := Config{
				Mode: Real, Workers: workers, MaxOps: 5_000_000,
				AffinityHints: hints, Trace: true,
				Retry: RetryPolicy{MaxAttempts: 3},
				// Each engine needs a private plan: plans keep cursors.
				Faults: SeededFaultPlan(7, []string{"rfill"}, 40),
			}
			e := New(g, cfg)
			v, err := e.Run(value.Int(6))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := fmt.Sprintf("%v", v)
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Fatalf("%s diverged: got %s want %s", name, got, ref)
			}
			st := e.Stats()
			if st.Blocks.Allocated != st.Blocks.Freed {
				t.Fatalf("%s: block leak: allocated %d freed %d", name,
					st.Blocks.Allocated, st.Blocks.Freed)
			}
			if !hints {
				if st.AffinityHits != 0 || st.AffinityMisses != 0 {
					t.Fatalf("%s: affinity counters nonzero with hints off: %+v", name, st)
				}
			} else if st.AffinityHits+st.AffinityMisses == 0 {
				t.Fatalf("%s: no preferred dispatches counted on a hinted program", name)
			}
			// Every worker count records one TraceAffinity per counted
			// outcome, so `delprof -steals` agrees with Stats.
			var hitEv, missEv int64
			for _, ws := range e.Trace().SchedReport().Workers {
				hitEv += ws.AffinityHits
				missEv += ws.AffinityMisses
			}
			if hitEv != st.AffinityHits || missEv != st.AffinityMisses {
				t.Fatalf("%s: trace has %d/%d affinity hit/miss events, Stats %d/%d",
					name, hitEv, missEv, st.AffinityHits, st.AffinityMisses)
			}
		}
	}
}

// TestAffinityCountersGatedByPlan: hints in the config alone do nothing —
// the program must carry a plan for any affinity machinery to engage.
func TestAffinityCountersGatedByPlan(t *testing.T) {
	g := compile(t, affinitySrc, faultOps())
	opt.PlanMemory(g)
	opt.FuseGraph(g, nil)
	e := New(g, Config{Mode: Real, Workers: 4, MaxOps: 5_000_000, AffinityHints: true})
	if _, err := e.Run(value.Int(5)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.AffinityHits != 0 || st.AffinityMisses != 0 {
		t.Fatalf("affinity counters engaged without a plan: %+v", st)
	}
}

// TestAffinitySimDeterministic: the simulated executor's hint placement is
// part of the deterministic schedule, so repeated runs agree tick-for-tick.
func TestAffinitySimDeterministic(t *testing.T) {
	g := compileAffinity(t)
	var makespan, hits int64
	for i := 0; i < 3; i++ {
		e := New(g, Config{Mode: Simulated, Workers: 4, MaxOps: 5_000_000, AffinityHints: true})
		if _, err := e.Run(value.Int(6)); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if i == 0 {
			makespan, hits = st.MakespanTicks, st.AffinityHits
			if hits == 0 {
				t.Fatal("simulated placement recorded no affinity hits")
			}
			continue
		}
		if st.MakespanTicks != makespan || st.AffinityHits != hits {
			t.Fatalf("run %d: makespan/hits = %d/%d, want %d/%d",
				i, st.MakespanTicks, st.AffinityHits, makespan, hits)
		}
	}
}

// TestAffinityStressRepeatedRuns hammers producer-preferred dispatch under
// stealing: many workers, wide fan-out, fresh engines, every run
// bit-identical and leak-free.
func TestAffinityStressRepeatedRuns(t *testing.T) {
	g := compileAffinity(t)
	var ref string
	for i := 0; i < 5; i++ {
		e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 5_000_000, AffinityHints: true})
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
// mode: the same fused+memplanned+affinity program does the same work and
// logs the same operator executions under the serial queue, the
// work-stealing pool and the simulated machine, every opened trace slice is
// closed — on a run that fails mid-way too — and no block leaks.
func TestExecutorParity(t *testing.T) {
	g := compileAffinity(t)
	type entry struct {
		name, tmpl string
		fused      bool
	}
	var refOps [11]int64
	var refLog map[entry]int
	for _, fail := range []bool{false, true} {
		for i, cfg := range []Config{
			{Mode: Real, Workers: 1},
			{Mode: Real, Workers: 2},
			{Mode: Real, Workers: 8},
			{Mode: Simulated, Workers: 4},
		} {
			name := fmt.Sprintf("fail=%v/mode=%d/w%d", fail, cfg.Mode, cfg.Workers)
			cfg.MaxOps, cfg.Timing, cfg.Trace, cfg.AffinityHints = 5_000_000, true, true, true
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
					case TraceNodeStart:
						starts++
					case TraceNodeEnd:
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
			ops := [11]int64{st.OpsExecuted, st.OperatorsRun, st.FusedNodes,
				st.FusedDispatchesSaved, st.ChargedUnits, st.TailCalls,
				st.ElidedRetains, st.ElidedReleases, st.PooledAllocs, st.CopiesAvoided,
				st.ActivationsAllocated + st.ActivationsReused}
			log := make(map[entry]int)
			for _, en := range e.Timing().Entries() {
				log[entry{en.Name, en.Template, en.Fused}]++
			}
			if i == 0 {
				refOps, refLog = ops, log
				continue
			}
			if ops != refOps {
				t.Errorf("%s: ops/operators/fused/saved/charged/tail/elided retains/elided releases/pooled/copies avoided/activations = %v, serial run had %v",
					name, ops, refOps)
			}
			if !reflect.DeepEqual(log, refLog) {
				t.Errorf("%s: timing log differs from the serial run's:\n got %v\nwant %v", name, log, refLog)
			}
		}
	}
}
