package trace

import (
	"fmt"
	"io"
	"strconv"
)

// Chrome trace-event / Perfetto export. The format is the JSON object form
// ({"traceEvents":[...]}) understood by ui.perfetto.dev and chrome://tracing:
//
//   - one thread track per worker (plus a "seed" track for events recorded
//     outside the pool), named via thread_name metadata;
//   - every node execution is a complete ("X") slice built from its
//     start/end event pair;
//   - every data delivery becomes a flow arrow ("s" at the producer, "f"
//     binding to the consumer's slice) so Perfetto draws the coordination
//     graph's data dependencies across tracks;
//   - steals, injects, tail calls, activation alloc/reuse, and block copies
//     are instant ("i") events; park/unpark pairs render as "park" slices.
//
// Output is generated with a deterministic writer (no maps, no
// encoding/json field reordering), so two identical Simulated runs produce
// byte-identical files.

// Timestamps: the trace-event "ts" field is in microseconds. Simulated
// virtual ticks are written 1 tick = 1 µs so integer ticks stay exact;
// Real-mode nanoseconds are written as fractional microseconds.
func (t *Trace) exportTS(ts int64) string {
	if t.Unit == Ticks {
		return strconv.FormatInt(ts, 10)
	}
	return fmt.Sprintf("%d.%03d", ts/1000, ts%1000)
}

// trackID maps a worker id to a stable numeric tid (seed track last).
func (t *Trace) trackID(wid int32) int {
	if wid < 0 {
		return t.Workers
	}
	return int(wid)
}

// instKey identifies one node execution instance.
type instKey struct {
	act  int64
	node int32
}

// WriteChrome writes the trace in Chrome trace-event JSON format.
func (t *Trace) WriteChrome(w io.Writer) error {
	ew := &eventWriter{w: w}
	ew.raw(`{"displayTimeUnit":"ms","traceEvents":[`)

	// Track metadata: processor tracks in id order, then the seed track.
	ew.meta("process_name", 0, `"args":{"name":"delirium"}`)
	for wid := 0; wid < t.Workers; wid++ {
		ew.meta("thread_name", wid, `"args":{"name":`+quote(fmt.Sprintf("worker %d", wid))+`}`)
		ew.meta("thread_sort_index", wid, fmt.Sprintf(`"args":{"sort_index":%d}`, wid))
	}
	ew.meta("thread_name", t.Workers, `"args":{"name":"seed"}`)
	ew.meta("thread_sort_index", t.Workers, fmt.Sprintf(`"args":{"sort_index":%d}`, t.Workers))

	// Pass 1: find each instance's start, so flow arrows know where to land.
	starts := make(map[instKey]*Event)
	t.walk(func(start, _ *Event) { starts[instKey{start.Act, start.Node}] = start }, nil)

	// Pass 2: emit, in track order and recording order, so deliveries sit
	// inside their producing slice.
	flowID := 0
	parkTS := make([]int64, len(t.Events)) // pending Park timestamp per track
	for i := range parkTS {
		parkTS[i] = -1
	}
	t.walk(func(st, end *Event) {
		ew.event(fmt.Sprintf(`"name":%s,"cat":"node","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"template":%s,"activation":%d,"node":%d}`,
			quote(st.Name), t.exportTS(st.Ts), t.durTS(st.Ts, end.Ts), t.trackID(st.Worker),
			quote(st.Tmpl), st.Act, st.Node))
	}, func(ev, _ *Event) {
		tid, ts := t.trackID(ev.Worker), t.exportTS(ev.Ts)
		switch ev.Type {
		case Deliver:
			// A flow arrow from inside the producing slice to the start of
			// the consuming slice. Deliveries whose consumer never ran
			// (program finished first) are dropped.
			dst, ok := starts[instKey{ev.Act, ev.Node}]
			if !ok {
				return
			}
			flowID++
			ew.event(fmt.Sprintf(`"name":"dep","cat":"flow","ph":"s","id":%d,"ts":%s,"pid":0,"tid":%d`,
				flowID, ts, tid))
			ew.event(fmt.Sprintf(`"name":"dep","cat":"flow","ph":"f","bp":"e","id":%d,"ts":%s,"pid":0,"tid":%d`,
				flowID, t.exportTS(dst.Ts), t.trackID(dst.Worker)))
		case Park:
			parkTS[tid] = ev.Ts
		case Unpark:
			if parkTS[tid] >= 0 {
				ew.event(fmt.Sprintf(`"name":"park","cat":"sched","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d`,
					t.exportTS(parkTS[tid]), t.durTS(parkTS[tid], ev.Ts), tid))
				parkTS[tid] = -1
			}
		case Steal:
			ew.instant(fmt.Sprintf("steal from %d", ev.Arg), "sched", ts, tid)
		case Inject:
			ew.instant("inject "+ev.Name, "sched", ts, tid)
		case TailCall:
			ew.instant("tail "+ev.Tmpl, "act", ts, tid)
		case ActAlloc:
			ew.instant("act alloc "+ev.Tmpl, "act", ts, tid)
		case ActReuse:
			ew.instant("act reuse "+ev.Tmpl, "act", ts, tid)
		case BlockCopy:
			ew.instant(fmt.Sprintf("copy %d words", ev.Arg), "mem", ts, tid)
		case Retry:
			ew.instant(fmt.Sprintf("retry %s (attempt %d failed)", ev.Name, ev.Arg), "fault", ts, tid)
		case Fault:
			ew.instant(fmt.Sprintf("fault %s exec %d", ev.Name, ev.Arg), "fault", ts, tid)
		}
	})
	ew.raw("]}\n")
	return ew.err
}

// durTS formats end-start in the export time unit, clamped to a minimum of
// one nanosecond-scale sliver so zero-length slices stay visible.
func (t *Trace) durTS(start, end int64) string {
	d := max(end-start, 0)
	if d == 0 && t.Unit == Nanos {
		d = 1
	}
	return t.exportTS(d)
}

// eventWriter emits the comma-separated event list, remembering the first
// error so call sites stay linear.
type eventWriter struct {
	w     io.Writer
	err   error
	wrote bool
}

func (e *eventWriter) raw(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *eventWriter) event(body string) {
	if e.err != nil {
		return
	}
	sep := ",\n"
	if !e.wrote {
		sep = "\n"
		e.wrote = true
	}
	_, e.err = io.WriteString(e.w, sep+"{"+body+"}")
}

// instant emits an instant ("i") event on track tid.
func (e *eventWriter) instant(name, cat, ts string, tid int) {
	e.event(fmt.Sprintf(`"name":%s,"cat":"%s","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`, quote(name), cat, ts, tid))
}

func (e *eventWriter) meta(name string, tid int, args string) {
	e.event(fmt.Sprintf(`"name":%s,"ph":"M","pid":0,"tid":%d,%s`, quote(name), tid, args))
}

// quote JSON-quotes a string.
func quote(s string) string { return strconv.Quote(s) }
