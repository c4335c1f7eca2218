package runtime

import (
	"fmt"
	"strings"
)

// SchedReport aggregates a run's scheduler behavior from the structured
// trace: per-worker steals and parks.
// It is the data behind `delprof -steals`, turning the raw event stream
// into the load-balance summary the §5.2 workflow wants: which workers ran
// dry and where their work came from.

// WorkerSched is one worker's scheduler activity for a run.
type WorkerSched struct {
	// Steals counts tasks this worker took from another worker's deque.
	Steals int64
	// Parks counts times this worker gave up spinning and slept.
	Parks int64
}

// SchedReport is the aggregated scheduler summary; index Workers by
// processor id.
type SchedReport struct {
	Workers []WorkerSched
}

// SchedReport builds the per-worker scheduler summary from a recorded
// trace. The external (seed) track carries no worker activity and is
// skipped.
func (t *Trace) SchedReport() *SchedReport {
	r := &SchedReport{Workers: make([]WorkerSched, t.Workers)}
	for wid := 0; wid < t.Workers && wid < len(t.Events); wid++ {
		ws := &r.Workers[wid]
		for _, ev := range t.Events[wid] {
			switch ev.Type {
			case TraceSteal:
				ws.Steals++
			case TracePark:
				ws.Parks++
			}
		}
	}
	return r
}

// Render formats the report as an aligned table plus totals.
func (r *SchedReport) Render() string {
	var b strings.Builder
	b.WriteString("scheduler: per-worker steal/park report\n")
	fmt.Fprintf(&b, "%-8s %8s %8s\n", "worker", "steals", "parks")
	var tot WorkerSched
	for wid := range r.Workers {
		ws := r.Workers[wid]
		fmt.Fprintf(&b, "%-8d %8d %8d\n", wid, ws.Steals, ws.Parks)
		tot.Steals += ws.Steals
		tot.Parks += ws.Parks
	}
	fmt.Fprintf(&b, "%-8s %8d %8d\n", "total", tot.Steals, tot.Parks)
	return b.String()
}
