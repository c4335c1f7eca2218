package runtime

import (
	"fmt"
	"io"
	"strconv"
	"strings"
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
	if t.Mode == Simulated {
		return strconv.FormatInt(ts, 10)
	}
	return fmt.Sprintf("%d.%03d", ts/1000, ts%1000)
}

// trackName labels a worker id for track metadata.
func trackName(wid int32) string {
	if wid < 0 {
		return "seed"
	}
	return fmt.Sprintf("worker %d", wid)
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
		ew.meta("thread_name", wid, `"args":{"name":`+quote(trackName(int32(wid)))+`}`)
		ew.meta("thread_sort_index", wid, fmt.Sprintf(`"args":{"sort_index":%d}`, wid))
	}
	ew.meta("thread_name", t.Workers, `"args":{"name":"seed"}`)
	ew.meta("thread_sort_index", t.Workers, fmt.Sprintf(`"args":{"sort_index":%d}`, t.Workers))

	// Pass 1: find each instance's start, so flow arrows know where to land.
	starts := make(map[instKey]*TraceEvent)
	for _, buf := range t.Events {
		for i := range buf {
			if buf[i].Type == TraceNodeStart {
				ev := &buf[i]
				starts[instKey{ev.Act, ev.Node}] = ev
			}
		}
	}

	// Pass 2: emit. Buffers are walked in worker order; within a buffer
	// events are in recording order, so starts precede their ends and
	// deliveries sit inside their producing slice.
	flowID := 0
	for _, buf := range t.Events {
		var open *TraceEvent  // pending TraceNodeStart on this track
		var parkTS int64 = -1 // pending TracePark timestamp
		for i := range buf {
			ev := &buf[i]
			tid := t.trackID(ev.Worker)
			switch ev.Type {
			case TraceNodeStart:
				open = ev
			case TraceNodeEnd:
				st := open
				open = nil
				if st == nil || st.Act != ev.Act || st.Node != ev.Node {
					continue // unbalanced (aborted run); drop the slice
				}
				ew.event(fmt.Sprintf(`"name":%s,"cat":"node","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"template":%s,"activation":%d,"node":%d}`,
					quote(st.Name), t.exportTS(st.Ts), t.durTS(st.Ts, ev.Ts), tid,
					quote(st.Tmpl), st.Act, st.Node))
			case TraceDeliver:
				// A flow arrow from inside the producing slice to the start
				// of the consuming slice. Deliveries whose consumer never
				// ran (program finished first) are dropped.
				dst, ok := starts[instKey{ev.Act, ev.Node}]
				if !ok {
					continue
				}
				flowID++
				ew.event(fmt.Sprintf(`"name":"dep","cat":"flow","ph":"s","id":%d,"ts":%s,"pid":0,"tid":%d`,
					flowID, t.exportTS(ev.Ts), tid))
				ew.event(fmt.Sprintf(`"name":"dep","cat":"flow","ph":"f","bp":"e","id":%d,"ts":%s,"pid":0,"tid":%d`,
					flowID, t.exportTS(dst.Ts), t.trackID(dst.Worker)))
			case TracePark:
				parkTS = ev.Ts
			case TraceUnpark:
				if parkTS >= 0 {
					ew.event(fmt.Sprintf(`"name":"park","cat":"sched","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d`,
						t.exportTS(parkTS), t.durTS(parkTS, ev.Ts), tid))
					parkTS = -1
				}
			case TraceSteal:
				ew.event(fmt.Sprintf(`"name":"steal from %d","cat":"sched","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`,
					ev.Arg, t.exportTS(ev.Ts), tid))
			case TraceInject:
				ew.event(fmt.Sprintf(`"name":"inject %s","cat":"sched","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`,
					escape(ev.Name), t.exportTS(ev.Ts), tid))
			case TraceTailCall:
				ew.event(fmt.Sprintf(`"name":"tail %s","cat":"act","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`,
					escape(ev.Tmpl), t.exportTS(ev.Ts), tid))
			case TraceActAlloc, TraceActReuse:
				kind := "alloc"
				if ev.Type == TraceActReuse {
					kind = "reuse"
				}
				ew.event(fmt.Sprintf(`"name":"act %s %s","cat":"act","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`,
					kind, escape(ev.Tmpl), t.exportTS(ev.Ts), tid))
			case TraceBlockCopy:
				ew.event(fmt.Sprintf(`"name":"copy %d words","cat":"mem","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`,
					ev.Arg, t.exportTS(ev.Ts), tid))
			case TraceRetry:
				ew.event(fmt.Sprintf(`"name":"retry %s (attempt %d failed)","cat":"fault","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`,
					escape(ev.Name), ev.Arg, t.exportTS(ev.Ts), tid))
			case TraceFault:
				ew.event(fmt.Sprintf(`"name":"fault %s exec %d","cat":"fault","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d`,
					escape(ev.Name), ev.Arg, t.exportTS(ev.Ts), tid))
			}
		}
	}
	ew.raw("]}\n")
	return ew.err
}

// durTS formats end-start in the export time unit, clamped to a minimum of
// one nanosecond-scale sliver so zero-length slices stay visible.
func (t *Trace) durTS(start, end int64) string {
	d := end - start
	if d < 0 {
		d = 0
	}
	if t.Mode == Simulated {
		return strconv.FormatInt(d, 10)
	}
	if d == 0 {
		return "0.001"
	}
	return fmt.Sprintf("%d.%03d", d/1000, d%1000)
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

func (e *eventWriter) meta(name string, tid int, args string) {
	e.event(fmt.Sprintf(`"name":%s,"ph":"M","pid":0,"tid":%d,%s`, quote(name), tid, args))
}

// quote JSON-quotes a string.
func quote(s string) string { return strconv.Quote(s) }

// escape escapes a string for embedding inside an already-quoted JSON
// string literal.
func escape(s string) string {
	q := strconv.Quote(s)
	return strings.TrimSuffix(strings.TrimPrefix(q, `"`), `"`)
}
