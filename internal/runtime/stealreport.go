package runtime

import (
	"fmt"
	"strings"
)

// SchedReport aggregates a run's scheduler behavior from the structured
// trace: per-worker steals, parks, and — under an active affinity plan —
// preferred-edge dispatch hits and misses.
// It is the data behind `delprof -steals`, turning the raw event stream
// into the load-balance summary the §5.2 workflow wants: which workers ran
// dry, where their work came from, and how often the producer-preferred
// dispatch actually kept a consumer on its producer's processor.

// WorkerSched is one worker's scheduler activity for a run.
type WorkerSched struct {
	// Steals counts tasks this worker took from another worker's deque.
	Steals int64
	// Parks counts times this worker gave up spinning and slept.
	Parks int64
	// AffinityHits / AffinityMisses count preferred-edge dispatch outcomes
	// observed at this worker's pops (hit = the task ran on the worker that
	// completed its preferred producer).
	AffinityHits   int64
	AffinityMisses int64
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
			case TraceAffinity:
				if ev.Arg == 1 {
					ws.AffinityHits++
				} else {
					ws.AffinityMisses++
				}
			}
		}
	}
	return r
}

// Render formats the report as an aligned table plus totals.
func (r *SchedReport) Render() string {
	var b strings.Builder
	b.WriteString("scheduler: per-worker steal/park/affinity report\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %10s %10s %9s\n",
		"worker", "steals", "parks", "aff-hits", "aff-miss", "hit-rate")
	var tot WorkerSched
	for wid := range r.Workers {
		ws := r.Workers[wid]
		fmt.Fprintf(&b, "%-8d %8d %8d %10d %10d %9s\n",
			wid, ws.Steals, ws.Parks,
			ws.AffinityHits, ws.AffinityMisses, hitRate(ws.AffinityHits, ws.AffinityMisses))
		tot.Steals += ws.Steals
		tot.Parks += ws.Parks
		tot.AffinityHits += ws.AffinityHits
		tot.AffinityMisses += ws.AffinityMisses
	}
	fmt.Fprintf(&b, "%-8s %8d %8d %10d %10d %9s\n",
		"total", tot.Steals, tot.Parks,
		tot.AffinityHits, tot.AffinityMisses, hitRate(tot.AffinityHits, tot.AffinityMisses))
	return b.String()
}

func hitRate(hits, misses int64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}
