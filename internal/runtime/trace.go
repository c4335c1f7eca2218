package runtime

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/trace"
)

// This file is the runtime's one recorder: per-worker buffers of typed
// trace events, with virtual-tick timestamps in Simulated mode and
// nanosecond offsets in Real mode. It records at one of two levels.
//
//   - Node level (Config.Timing alone) records the brackets of operator
//     executions and nothing else: no other event kind, no activation
//     stamps, and no clock read beyond the bracket's two. The §5.2 timing
//     log (Engine.Timing) is a view of these brackets.
//   - Full level (Config.Trace) records every node's brackets and every
//     other event kind: deliveries, steals, parks, injects, activation
//     traffic, tail calls, block copies, retries and faults.
//
// Everything that reads a finished record lives in internal/trace.
//
// Cost discipline: an engine with neither level on pays one nil check per
// dispatch. Node brackets guard on Engine.tracer; every other recording
// site guards on a pointer that is set only at full level (w.tr or s.tr).
// A worker only ever appends to its own buffer, so recording takes no
// locks.

// tracer is the engine-internal recorder behind Config.Timing and
// Config.Trace.
type tracer struct {
	unit string
	// full is set at full level (Config.Trace).
	full bool
	// now returns the current timestamp; executors install it at run start.
	now func() int64
	// bufs[w] is worker w's private buffer; bufs[len-1] the external track.
	bufs [][]trace.Event
	// actSeq allocates activation stamps. Atomic for the real executor; the
	// simulated executor is single-threaded, so its stamps are deterministic.
	actSeq atomic.Int64
}

// newTracer returns the recorder cfg asks for, or nil for none.
func newTracer(cfg Config) *tracer {
	if !cfg.Timing && !cfg.Trace {
		return nil
	}
	t := &tracer{unit: trace.Nanos, full: cfg.Trace, bufs: make([][]trace.Event, cfg.workers()+1)}
	if cfg.Mode == Simulated {
		t.unit = trace.Ticks
	}
	t.now = func() int64 { return 0 } // replaced by the executor at run start
	return t
}

// renew readies the recorder for the next run of a reused engine. A full
// record may outlive its run as a Trace, so the next run records into new
// buffers. A node-level record is read only through Engine.Timing, which
// copies what it reads, so its buffers are emptied and kept.
func (t *tracer) renew(cfg Config) *tracer {
	if t == nil || t.full {
		return newTracer(cfg)
	}
	for i := range t.bufs {
		t.bufs[i] = t.bufs[i][:0]
	}
	return t
}

// brackets reports whether the recorder brackets n's executions: every
// node's at full level, only an operator's at node level. False on a nil
// recorder.
func (t *tracer) brackets(n *graph.Node) bool {
	return t != nil && (t.full || n.Kind == graph.OpNode)
}

// events returns the recorder when it records every event kind, and nil
// otherwise: what a recording site outside the node brackets tests.
func (t *tracer) events() *tracer {
	if t != nil && t.full {
		return t
	}
	return nil
}

// nextAct allocates an activation stamp (1-based; 0 means unstamped).
func (t *tracer) nextAct() int64 { return t.actSeq.Add(1) }

// record appends ev to worker wid's buffer; wid -1 selects the external
// track. Callers must only record for their own worker id.
func (t *tracer) record(wid int, ev trace.Event) {
	idx := wid
	if idx < 0 {
		idx = len(t.bufs) - 1
	}
	ev.Worker = int32(wid)
	t.bufs[idx] = append(t.bufs[idx], ev)
}

// snapshot packages the buffers for the readers.
func (t *tracer) snapshot() *trace.Trace {
	return &trace.Trace{Unit: t.unit, Workers: len(t.bufs) - 1, Events: t.bufs}
}
