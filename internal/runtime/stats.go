package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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
	// maximum observed. Serial and Simulated runs observe every change, so
	// their peaks are exact. A multi-worker Real run samples: each worker
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

// reset zeroes every counter for the next run of a reused engine. Stores are
// atomic: an operator that timed out under Config.OpTimeout may have left an
// abandoned shadow goroutine behind, and although its results are discarded
// it can still touch the block counters until it unwinds.
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

// TimingEntry records one node execution for the node timing tool (§5.2).
type TimingEntry struct {
	Name     string // operator or node label
	Template string
	Proc     int
	Start    int64 // virtual start time (Simulated) or offset nanoseconds (Real)
	Ticks    int64 // virtual ticks (Simulated) or nanoseconds (Real)
	// Stolen marks a Real-mode entry whose task was pushed by a different
	// worker than the one that ran it (it crossed the steal path). The gantt
	// renderer marks it.
	Stolen bool
}

// TimingLog collects node timings from all workers. The engine's executors
// write through per-worker shards (no lock on the execution hot path); the
// public Add path keeps a mutex for external producers. Entries merges both
// and sorts, so rendering is deterministic regardless of which worker
// recorded what first.
type TimingLog struct {
	mu      sync.Mutex
	entries []TimingEntry
	// shards[w] is worker w's private buffer; only worker w appends to it,
	// and readers merge after the run is quiescent.
	shards [][]TimingEntry
}

// NewTimingLog returns an empty log.
func NewTimingLog() *TimingLog { return &TimingLog{} }

// initShards sizes the per-worker buffers; called by the engine before the
// workers start.
func (l *TimingLog) initShards(workers int) {
	if len(l.shards) < workers {
		l.shards = make([][]TimingEntry, workers)
	}
}

// addShard appends to worker wid's private buffer without locking. Engine
// internal: only worker wid may call it, and only while the run is live.
func (l *TimingLog) addShard(wid int, e TimingEntry) {
	l.shards[wid] = append(l.shards[wid], e)
}

// Add appends one entry; safe for concurrent use.
func (l *TimingLog) Add(e TimingEntry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// Entries returns the recorded entries merged across all workers and sorted
// by (Start, Proc, Name). Under Real-mode concurrency the raw arrival order
// is scheduling-dependent; the sort makes Listing and Gantt output
// deterministic for a given set of measurements. Call after Run returns.
func (l *TimingLog) Entries() []TimingEntry {
	l.mu.Lock()
	out := append([]TimingEntry(nil), l.entries...)
	l.mu.Unlock()
	for _, shard := range l.shards {
		out = append(out, shard...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Listing renders entries for the named operators in the paper's format:
//
//	call of convol_split took 10013
//	call of convol_bite took 1059919
//
// Only operators in the filter set are listed (nil lists everything).
func (l *TimingLog) Listing(filter map[string]bool) string {
	var b strings.Builder
	for _, e := range l.Entries() {
		if filter != nil && !filter[e.Name] {
			continue
		}
		fmt.Fprintf(&b, "call of %s took %d\n", e.Name, e.Ticks)
	}
	return b.String()
}

// Summary aggregates per-operator totals, sorted by descending total time.
type TimingSummary struct {
	Name  string
	Calls int
	Total int64
	Max   int64
}

// Summarize groups entries by operator name.
func (l *TimingLog) Summarize() []TimingSummary {
	agg := make(map[string]*TimingSummary)
	for _, e := range l.Entries() {
		s := agg[e.Name]
		if s == nil {
			s = &TimingSummary{Name: e.Name}
			agg[e.Name] = s
		}
		s.Calls++
		s.Total += e.Ticks
		if e.Ticks > s.Max {
			s.Max = e.Ticks
		}
	}
	out := make([]TimingSummary, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}
