package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (nothing inside the program under test is instrumented). Spans of one
// operation share Op; Parent is the enclosing span's ID, -1 for the
// operation's root span.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so operations call it unconditionally and end-to-end runs pass nil.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records one span and returns its ID for use as a parent.
func (t *tracer) add(parent int32, op int, name string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: int32(op), Name: name,
		StartNS: start.Sub(t.base).Nanoseconds(), EndNS: end.Sub(t.base).Nanoseconds()})
	return id
}

// layerRow is one line of the per-layer table: how often a layer was entered,
// its total time, and its self time — its spans' durations minus the part of
// each that its direct children cover.
type layerRow struct {
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns each span's self time in ns, indexed by span ID.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// layerTable aggregates spans by name, in order of first appearance.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	index := make(map[string]int)
	var rows []layerRow
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(rows)
			index[s.Name] = i
			rows = append(rows, layerRow{Layer: s.Name})
		}
		rows[i].Count++
		rows[i].TotalMS += float64(s.EndNS-s.StartNS) / 1e6
		rows[i].SelfMS += float64(self[s.ID]) / 1e6
	}
	return rows
}

// attributedShare is the part of all operation time that some layer below
// the root accounts for: 1 − Σ root self time ÷ Σ root duration.
func attributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var rootSelf, rootDur int64
	for _, s := range spans {
		if s.Parent < 0 {
			rootSelf += self[s.ID]
			rootDur += s.EndNS - s.StartNS
		}
	}
	if rootDur == 0 {
		return 0
	}
	return 1 - float64(rootSelf)/float64(rootDur)
}
