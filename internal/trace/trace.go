// Package trace reads what the runtime's one recorder wrote during a run.
// The recorder (internal/runtime) appends typed events to per-worker
// buffers; everything here works on the finished record: the §5.2
// node-timing log, the gantt chart, the critical path and the granularity
// advice built on it, the Chrome/Perfetto export and the per-worker
// scheduler report. Every reader that needs node executions gets them from
// one bracket-pairing walk (Trace.walk).
package trace

// Units of a trace's timestamps.
const (
	// Ticks are the simulated machine's virtual ticks.
	Ticks = "ticks"
	// Nanos are nanoseconds since the run started.
	Nanos = "ns"
)

// EventType enumerates the recorded event kinds.
type EventType uint8

// Event kinds.
const (
	// NodeStart/NodeEnd bracket one node execution. Start carries the node
	// label, the template and the task's provenance; both carry the
	// (activation, node) key.
	NodeStart EventType = iota
	NodeEnd
	// Deliver records one value delivery from the node currently executing
	// on the recording worker to input port(s) of the target (activation,
	// node): the data-dependency edges the flow arrows and the
	// critical-path analyzer follow.
	Deliver
	// Steal records a successful steal by the recording worker; Arg is the
	// victim worker.
	Steal
	// Park/Unpark bracket a worker's sleep on its parker.
	Park
	Unpark
	// Inject records a seed: a task the boot worker pushed onto the first
	// worker's deque before any worker started.
	Inject
	// ActAlloc/ActReuse record activation demand: a fresh allocation versus
	// a pool hit. Tmpl names the template, Act the stamp assigned to the new
	// activation instance.
	ActAlloc
	ActReuse
	// TailCall records an activation replaced in place (§7 tail calls).
	TailCall
	// BlockCopy records a copy forced by the sole-reference rule; Arg is the
	// number of words copied.
	BlockCopy
	// Retry records a failed operator attempt about to be re-executed; Arg
	// is the attempt number that failed (1-based).
	Retry
	// Fault records an injected fault firing; Arg is the operator's
	// execution index the fault was armed for.
	Fault
)

var eventNames = [...]string{"node-start", "node-end", "deliver", "steal", "park", "unpark",
	"inject", "act-alloc", "act-reuse", "tail-call", "block-copy", "retry", "fault"}

// String names the event kind.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one recorded event, 72 bytes. Ts is in the trace's Unit. Worker
// is the recording processor, or -1 for events recorded outside the worker
// pool (seeding).
type Event struct {
	Type EventType
	// Op marks a NodeStart of a sequential operator (an OpNode), the only
	// node executions the timing log lists.
	Op     bool
	Worker int32
	// Node is the node id within its template for node events, or the
	// delivery target's node id for Deliver.
	Node int32
	Ts   int64
	// Arg carries the per-kind payload: for NodeStart the worker that
	// pushed the task (-1 for a seed), for NodeEnd 1 when the node failed
	// (0 when it succeeded), the steal victim, the copied words.
	Arg int64
	// Act is the activation stamp the event belongs (or delivers) to; 0 on
	// a recorder that stamps no activations.
	Act int64
	// Name labels node events (operator name, or the node kind for unnamed
	// plumbing nodes); Tmpl names the template of node and activation events.
	Name string
	Tmpl string
}

// Trace is a completed run's event record: one buffer per worker in
// recording order, plus a final buffer for events recorded outside the
// worker pool (seeding).
type Trace struct {
	// Unit names the timestamps' unit: Ticks or Nanos.
	Unit string
	// Workers is the configured processor count; Events has Workers+1
	// buffers, the last being the external (seed) track.
	Workers int
	Events  [][]Event
}

// Len counts recorded events across all buffers.
func (t *Trace) Len() int {
	n := 0
	for _, buf := range t.Events {
		n += len(buf)
	}
	return n
}

// walk is the one bracket-pairing walk. It visits the tracks in order and
// each track's events in recording order. A NodeEnd closes the NodeStart
// open on its track when both carry the same (activation, node) key, and
// node receives the pair; an end that matches nothing (an aborted run's)
// drops the open start. Every other event goes to other, with the start of
// the node slice it was recorded in (nil outside one). Either callback may
// be nil.
func (t *Trace) walk(node func(start, end *Event), other func(ev, open *Event)) {
	for _, buf := range t.Events {
		var open *Event
		for i := range buf {
			ev := &buf[i]
			switch ev.Type {
			case NodeStart:
				open = ev
			case NodeEnd:
				if open != nil && open.Act == ev.Act && open.Node == ev.Node && node != nil {
					node(open, ev)
				}
				open = nil
			default:
				if other != nil {
					other(ev, open)
				}
			}
		}
	}
}
