package runtime

import (
	"fmt"
	"sync/atomic"

	"repro/internal/value"
)

// Stats aggregates one run's execution counters. The per-dispatch counters
// (OpsExecuted, OperatorsRun, ChargedUnits, TailCalls), the activation
// counters (ActivationsAllocated, ActivationsReused) and the block counters
// (Blocks) are counted by each worker on its own and folded in as it leaves
// the run; the rest are updated atomically as they happen. Read them after
// Run returns.
type Stats struct {
	// OpsExecuted counts scheduled node executions (operators, calls,
	// conditionals, plumbing nodes) — everything that went through the
	// ready queue.
	OpsExecuted int64
	// OperatorsRun counts sequential operator (OpNode) executions only.
	OperatorsRun int64
	// ActivationsAllocated and ActivationsReused split activation demand
	// between fresh allocations and free-list reuse (§7: the priority scheme
	// reduces the number of template activations required).
	ActivationsAllocated int64
	ActivationsReused    int64
	// LiveActivations tracks currently-live activations; PeakLive the
	// maximum observed. Simulated runs observe every change, so their peaks
	// are exact. A Real run, at any worker count, samples: each worker
	// publishes its changes every 64 dispatches and as it leaves the run,
	// so PeakLive never exceeds the true peak but may fall short of it.
	// LiveActivations is exact once the run is over, in every mode.
	LiveActivations int64
	PeakLive        int64
	// LiveActivationWords tracks the words held by live activation
	// buffers; PeakActivationWords the maximum observed, exact or sampled
	// like PeakLive. Compared against the program's template memory, this
	// checks §7's claim that templates represent over 80% of the runtime
	// system's memory.
	LiveActivationWords int64
	PeakActivationWords int64
	// TailCalls counts activations replaced in place by a tail call.
	TailCalls int64
	// ChargedUnits is total work charged by operators via Context.Charge.
	ChargedUnits int64
	// Work-stealing scheduler counters (Real mode). Steals counts tasks
	// taken FIFO from another worker's deque; StealContention counts steal
	// CAS attempts lost to a racing thief or owner; Parks counts workers
	// going to sleep after an empty spin-then-steal sweep; InjectedTasks
	// counts the run's seeds: tasks the boot worker pushed onto the first
	// worker's deques before any worker started.
	Steals          int64
	StealContention int64
	Parks           int64
	InjectedTasks   int64
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	AffinityHits int64
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	AffinityMisses int64
	// Blocks aggregates reference-count traffic (copies = the price of the
	// determinism guarantee). Each worker counts into its own shard, and a
	// block's Freed lands on the shard of the worker that drops its last
	// reference, so Allocated == Freed holds on the folded totals only.
	Blocks value.BlockStats
	// Fault-tolerance counters. Retries counts re-executed operator
	// attempts; SnapshotCopies counts blocks deep-copied to keep pristine
	// inputs for a possible retry (kept apart from Blocks.Copies, which
	// prices the §8 contention protocol itself); OpTimeouts counts attempts
	// cut off by Config.OpTimeout / Operator.Timeout; FaultsInjected counts
	// faults fired from the Config.Faults plan.
	Retries        int64
	SnapshotCopies int64
	OpTimeouts     int64
	FaultsInjected int64
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	ElidedRetains int64
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	ElidedReleases int64
	// PooledAllocs counts operator allocations served from the per-worker
	// block pools, which every block freed on a worker feeds.
	PooledAllocs int64
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	FusedNodes int64

	// Simulated-mode results. MakespanTicks is the virtual finish time;
	// BusyTicks the summed per-processor busy time; DispatchTicks the
	// scheduling overhead included in BusyTicks; MemoryTicks the memory
	// access cost included in BusyTicks.
	MakespanTicks int64
	BusyTicks     int64
	DispatchTicks int64
	MemoryTicks   int64
	ProcBusyTicks []int64
	// RealNanos is the wall-clock duration of a Real-mode run.
	RealNanos int64
}

// reset zeroes every counter for the next run of a reused engine. The stores
// are atomic like the adds. A goroutine abandoned to the deadline watchdog
// may still be running, but it writes only its deadline slot's private sink,
// never these counters.
func (s *Stats) reset() {
	for _, p := range []*int64{
		&s.OpsExecuted, &s.OperatorsRun,
		&s.ActivationsAllocated, &s.ActivationsReused,
		&s.LiveActivations, &s.PeakLive,
		&s.LiveActivationWords, &s.PeakActivationWords,
		&s.TailCalls, &s.ChargedUnits,
		&s.Steals, &s.StealContention, &s.Parks, &s.InjectedTasks,
		&s.Blocks.Allocated, &s.Blocks.Copies, &s.Blocks.Retains,
		&s.Blocks.Releases, &s.Blocks.Freed,
		&s.Retries, &s.SnapshotCopies, &s.OpTimeouts, &s.FaultsInjected,
		&s.PooledAllocs,
		&s.MakespanTicks, &s.BusyTicks, &s.DispatchTicks, &s.MemoryTicks,
		&s.RealNanos,
	} {
		atomic.StoreInt64(p, 0)
	}
	s.ProcBusyTicks = nil
}

// noteLive moves the live-activation gauges and refreshes the peaks of the
// ones that grew (worker.noteLive decides when).
func (s *Stats) noteLive(delta, words int64) {
	live := atomic.AddInt64(&s.LiveActivations, delta)
	liveWords := atomic.AddInt64(&s.LiveActivationWords, words)
	if delta > 0 {
		raise(&s.PeakLive, live)
	}
	if words > 0 {
		raise(&s.PeakActivationWords, liveWords)
	}
}

// raise lifts *peak to v if v is larger.
func raise(peak *int64, v int64) {
	for {
		p := atomic.LoadInt64(peak)
		if v <= p || atomic.CompareAndSwapInt64(peak, p, v) {
			return
		}
	}
}

// OverheadFraction returns scheduling overhead as a fraction of all busy
// virtual time — the figure the paper reports as "generally less than three
// percent" (§1) and under one percent for the retina model (§7). Returns 0
// for Real-mode runs.
func (s *Stats) OverheadFraction() float64 {
	if s.BusyTicks == 0 {
		return 0
	}
	return float64(s.DispatchTicks) / float64(s.BusyTicks)
}

// Utilization returns busy/total processor-time for a simulated run.
func (s *Stats) Utilization() float64 {
	if s.MakespanTicks == 0 || len(s.ProcBusyTicks) == 0 {
		return 0
	}
	return float64(s.BusyTicks) / float64(s.MakespanTicks*int64(len(s.ProcBusyTicks)))
}

// String summarizes the counters. Pooled allocations are appended only when
// the run recycled a block, so a run that recycles nothing keeps the plain
// format.
func (s *Stats) String() string {
	out := fmt.Sprintf("ops=%d operators=%d activations=%d(+%d reused) peak=%d tail=%d charged=%d copies=%d steals=%d parks=%d",
		atomic.LoadInt64(&s.OpsExecuted), atomic.LoadInt64(&s.OperatorsRun),
		atomic.LoadInt64(&s.ActivationsAllocated), atomic.LoadInt64(&s.ActivationsReused),
		atomic.LoadInt64(&s.PeakLive), atomic.LoadInt64(&s.TailCalls),
		atomic.LoadInt64(&s.ChargedUnits), atomic.LoadInt64(&s.Blocks.Copies),
		atomic.LoadInt64(&s.Steals), atomic.LoadInt64(&s.Parks))
	if pa := atomic.LoadInt64(&s.PooledAllocs); pa != 0 {
		out += fmt.Sprintf(" pooled=%d", pa)
	}
	return out
}
