package trace

import (
	"fmt"
	"sort"
	"strings"
)

// TimingEntry records one operator execution for the node timing tool
// (§5.2).
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

// TimingLog is the §5.2 node-timing log of one run: a view of the node
// brackets the recorder wrote, kept sorted so that rendering is
// deterministic regardless of which worker recorded what first.
type TimingLog struct {
	entries []TimingEntry
}

// NewTimingLog returns a log of entries, which it sorts in place and keeps.
func NewTimingLog(entries []TimingEntry) *TimingLog {
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Name < b.Name
	})
	return &TimingLog{entries: entries}
}

// Timing derives the timing log from the trace's node brackets: one entry
// for every operator execution that succeeded. A failed node gets none, and
// neither does an attempt abandoned to the deadline watchdog, whose bracket
// the watchdog closes as failed.
func (t *Trace) Timing() *TimingLog {
	var entries []TimingEntry
	t.walk(func(start, end *Event) {
		if start.Op && end.Arg == 0 {
			entries = append(entries, TimingEntry{
				Name:     start.Name,
				Template: start.Tmpl,
				Proc:     int(start.Worker),
				Start:    start.Ts,
				Ticks:    end.Ts - start.Ts,
				Stolen:   start.Arg >= 0 && start.Arg != int64(start.Worker),
			})
		}
	}, nil)
	return NewTimingLog(entries)
}

// Entries returns the recorded entries sorted by (Start, Proc, Name). The
// slice is the log's own.
func (l *TimingLog) Entries() []TimingEntry { return l.entries }

// Listing renders entries for the named operators in the paper's format:
//
//	call of convol_split took 10013
//	call of convol_bite took 1059919
//
// Only operators in the filter set are listed (nil lists everything).
func (l *TimingLog) Listing(filter map[string]bool) string {
	var b strings.Builder
	for _, e := range l.entries {
		if filter != nil && !filter[e.Name] {
			continue
		}
		fmt.Fprintf(&b, "call of %s took %d\n", e.Name, e.Ticks)
	}
	return b.String()
}

// TimingSummary aggregates one operator's totals.
type TimingSummary struct {
	Name  string
	Calls int
	Total int64
	Max   int64
}

// Summarize groups entries by operator name, sorted by descending total
// time.
func (l *TimingLog) Summarize() []TimingSummary {
	agg := make(map[string]*TimingSummary)
	for _, e := range l.entries {
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
