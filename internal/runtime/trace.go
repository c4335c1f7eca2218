package runtime

import "sync/atomic"

// This file implements the structured execution tracer — the modern form of
// the paper's §5.2 node-timing tool. Where TimingLog records a flat listing
// of operator durations, the tracer records typed events (node start/end,
// value delivery, steal, park/unpark, inject, activation alloc/reuse, tail
// call, block copy) into per-worker buffers, with virtual-tick timestamps in
// Simulated mode and nanosecond offsets in Real mode. On top of the raw
// trace, traceexport.go renders Chrome trace-event / Perfetto JSON (one
// track per worker, flow arrows along data dependencies) and critpath.go
// replays the recorded times over the dependency edges to find the longest
// weighted chain — the analysis that mechanically identifies the retina
// model's post_up bottleneck.
//
// Cost discipline: tracing disabled must stay a nil check on the hot path.
// Every recording site guards on a single pointer (w.tr, s.tr, or e.tracer),
// and a worker only ever appends to its own buffer, so the enabled path
// takes no locks either.

// TraceEventType enumerates the recorded event kinds.
type TraceEventType uint8

// Trace event kinds.
const (
	// TraceNodeStart/TraceNodeEnd bracket one node execution. Start carries
	// the node label and template; both carry the (activation, node) key.
	TraceNodeStart TraceEventType = iota
	TraceNodeEnd
	// TraceDeliver records one value delivery from the node currently
	// executing on the recording worker to input port(s) of the target
	// (activation, node) — the data-dependency edges the flow arrows and the
	// critical-path analyzer follow.
	TraceDeliver
	// TraceSteal records a successful steal by the recording worker; Arg is
	// the victim worker.
	TraceSteal
	// TracePark/TraceUnpark bracket a worker's sleep on its parker.
	TracePark
	TraceUnpark
	// TraceInject records a seed: a task the boot worker pushed onto the
	// first worker's deques before any worker started.
	TraceInject
	// TraceActAlloc/TraceActReuse record activation demand: a fresh
	// allocation versus a pool hit. Tmpl names the template, Act the stamp
	// assigned to the new activation instance.
	TraceActAlloc
	TraceActReuse
	// TraceTailCall records an activation replaced in place (§7 tail calls).
	TraceTailCall
	// TraceBlockCopy records a copy forced by the sole-reference rule; Arg is
	// the number of words copied.
	TraceBlockCopy
	// TraceRetry records a failed operator attempt about to be re-executed;
	// Arg is the attempt number that failed (1-based).
	TraceRetry
	// TraceFault records an injected fault firing; Arg is the operator's
	// execution index the fault was armed for.
	TraceFault
)

// String names the event kind.
func (t TraceEventType) String() string {
	switch t {
	case TraceNodeStart:
		return "node-start"
	case TraceNodeEnd:
		return "node-end"
	case TraceDeliver:
		return "deliver"
	case TraceSteal:
		return "steal"
	case TracePark:
		return "park"
	case TraceUnpark:
		return "unpark"
	case TraceInject:
		return "inject"
	case TraceActAlloc:
		return "act-alloc"
	case TraceActReuse:
		return "act-reuse"
	case TraceTailCall:
		return "tail-call"
	case TraceBlockCopy:
		return "block-copy"
	case TraceRetry:
		return "retry"
	case TraceFault:
		return "fault"
	default:
		return "unknown"
	}
}

// TraceEvent is one recorded event. Ts is virtual ticks in Simulated mode
// and nanoseconds since run start in Real mode. Worker is the recording
// processor, or -1 for events recorded outside the worker pool (seeding).
type TraceEvent struct {
	Type   TraceEventType
	Worker int32
	// Node is the node id within its template for node events, or the
	// delivery target's node id for TraceDeliver.
	Node int32
	Ts   int64
	// Arg carries the per-kind payload: steal victim, copied words.
	Arg int64
	// Act is the activation stamp the event belongs (or delivers) to.
	Act int64
	// Name labels node events (operator name, or the node kind for unnamed
	// plumbing nodes); Tmpl names the template of node and activation events.
	Name string
	Tmpl string
}

// Trace is a completed run's event record: one buffer per worker in
// recording order, plus a final buffer for events recorded outside the
// worker pool (seeding). Read it after Run returns via Engine.Trace.
type Trace struct {
	// Mode tells how to interpret timestamps: virtual ticks (Simulated) or
	// nanoseconds since run start (Real).
	Mode Mode
	// Workers is the configured processor count; Events has Workers+1
	// buffers, the last being the external (seed) track.
	Workers int
	Events  [][]TraceEvent
}

// Len counts recorded events across all buffers.
func (t *Trace) Len() int {
	n := 0
	for _, buf := range t.Events {
		n += len(buf)
	}
	return n
}

// tracer is the engine-internal recorder behind Config.Trace.
type tracer struct {
	mode Mode
	// now returns the current timestamp; executors install it at run start.
	now func() int64
	// bufs[w] is worker w's private buffer; bufs[len-1] the external track.
	// A worker appends only to its own buffer, so recording takes no locks.
	bufs [][]TraceEvent
	// actSeq allocates activation stamps. Atomic for the real executor; the
	// simulated executor is single-threaded, so its stamps are deterministic.
	actSeq atomic.Int64
}

func newTracer(mode Mode, workers int) *tracer {
	t := &tracer{mode: mode, bufs: make([][]TraceEvent, workers+1)}
	t.now = func() int64 { return 0 } // replaced by the executor at run start
	return t
}

// nextAct allocates an activation stamp (1-based; 0 means unstamped).
func (t *tracer) nextAct() int64 { return t.actSeq.Add(1) }

// record appends ev to worker wid's buffer; wid -1 selects the external
// track. Callers must only record for their own worker id.
func (t *tracer) record(wid int, ev TraceEvent) {
	idx := wid
	if idx < 0 {
		idx = len(t.bufs) - 1
	}
	ev.Worker = int32(wid)
	t.bufs[idx] = append(t.bufs[idx], ev)
}

// snapshot packages the buffers for the public API.
func (t *tracer) snapshot() *Trace {
	return &Trace{Mode: t.mode, Workers: len(t.bufs) - 1, Events: t.bufs}
}
