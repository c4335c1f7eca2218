package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Gantt renders an ASCII per-processor timeline of a simulated run's
// operator executions — the environment's "various tools for analyzing and
// improving execution speed" (§1). Each row is a processor; each segment a
// contiguous run of one operator, labeled by its first letters; idle time
// prints as dots. Load imbalance — the retina model's §5.2 problem — is
// visible at a glance as long runs on one row against dots on the others.
//
// width is the number of character cells the makespan is scaled into.
func (l *TimingLog) Gantt(width int) string {
	entries := l.Entries()
	if len(entries) == 0 {
		return "(no timing entries)\n"
	}
	if width < 10 {
		width = 10
	}
	maxProc := 0
	var span int64
	for _, e := range entries {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
		if end := e.Start + e.Ticks; end > span {
			span = end
		}
	}
	if span == 0 {
		span = 1
	}
	rows := make([][]byte, maxProc+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	// Paint longer entries first so tiny ops cannot hide a dominant one.
	sorted := append([]TimingEntry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Ticks > sorted[j].Ticks })
	marked := false
	for _, e := range sorted {
		c0 := int(e.Start * int64(width) / span)
		c1 := int((e.Start + e.Ticks) * int64(width) / span)
		if c1 <= c0 {
			c1 = c0 + 1
		}
		if c1 > width {
			c1 = width
		}
		label := e.Name
		// A stolen task's segment opens with '%'.
		mark := byte(0)
		if e.Stolen {
			mark, marked = '%', true
		}
		for c := c0; c < c1; c++ {
			idx := c - c0
			ch := byte('#')
			if idx < len(label) {
				ch = label[idx]
			}
			if idx == 0 && mark != 0 {
				ch = mark
			}
			rows[e.Proc][c] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time 0..%d ticks, %d cells/row", span, width)
	if marked {
		b.WriteString("  (% stolen)")
	}
	b.WriteString("\n")
	for p, row := range rows {
		fmt.Fprintf(&b, "proc %2d |%s|\n", p, row)
	}
	return b.String()
}

// ProcLoads sums busy ticks per processor from the timing entries,
// returning a slice indexed by processor id.
func (l *TimingLog) ProcLoads() []int64 {
	entries := l.Entries()
	maxProc := 0
	for _, e := range entries {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
	}
	loads := make([]int64, maxProc+1)
	for _, e := range entries {
		loads[e.Proc] += e.Ticks
	}
	return loads
}
