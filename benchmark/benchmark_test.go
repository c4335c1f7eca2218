package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i) // 200 … 1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 100}, {0.95, 190}, {1.0, 200}, {0, 1}, {0.001, 1},
	} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// p95 of 200 samples must leave at least ten samples beyond it.
	beyond := 0
	for _, v := range vals {
		if v > percentile(vals, 0.95) {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("only %d samples beyond p95 of 200", beyond)
	}
	if vals[0] != 200 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestMedianOfSegments(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// One slow segment out of five must not move the reported value.
	s := summarize([]float64{10.1, 10.0, 30.0, 9.9, 10.2}, "ms")
	want := summary{Value: 10.1, Min: 9.9, Max: 30.0, Unit: "ms"}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
}

func TestSegmentMetrics(t *testing.T) {
	s := segment{wall: 2 * time.Second}
	for i := 1; i <= 8; i++ {
		s.record(time.Duration(i)*time.Millisecond, nil, 5*time.Millisecond)
	}
	s.record(time.Millisecond, errLeak, 5*time.Millisecond)
	s.record(time.Millisecond, errLeak, 5*time.Millisecond)
	s.use = usage{cpu: 40 * time.Millisecond, mallocs: 1000, bytes: 20 * 1024}
	if s.attempted != 10 || s.failed != 2 || s.sloOK != 5 || s.firstErr != errLeak {
		t.Fatalf("attempted %d failed %d sloOK %d firstErr %v", s.attempted, s.failed, s.sloOK, s.firstErr)
	}
	got := s.perSegment()
	want := map[string]float64{"ops_per_s": 4, "op_ms_p50": 4, "op_ms_p95": 8,
		"cpu_ms_per_op": 4, "allocs_per_op": 100, "alloc_kb_per_op": 2, "slo_ok_share": 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("perSegment = %v, want %v", got, want)
	}
}

func TestScheduleIsSeededAndStratified(t *testing.T) {
	const n, dur = 500, 4 * time.Second
	a := makeSchedule(rand.New(rand.NewSource(7)), n, dur)
	b := makeSchedule(rand.New(rand.NewSource(7)), n, dur)
	c := makeSchedule(rand.New(rand.NewSource(8)), n, dur)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same schedule")
	}
	for i := 1; i < n; i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("due times not sorted at %d", i)
		}
	}
	if a[n-1].due >= dur {
		t.Errorf("last request due at %v, after the segment's %v", a[n-1].due, dur)
	}
	for blk := 0; blk < n/mixBlock; blk++ {
		var count [numKinds]int
		for _, r := range a[blk*mixBlock : (blk+1)*mixBlock] {
			count[r.kind]++
		}
		if count != mixPer100 {
			t.Errorf("block %d carries mix %v, want %v", blk, count, mixPer100)
		}
	}
	total := 0
	for _, c := range mixPer100 {
		total += c
	}
	if total != mixBlock {
		t.Errorf("mix sums to %d, want %d", total, mixBlock)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{base: time.Unix(0, 0)}
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	root := tr.add(-1, 0, "op", at(0), at(100))
	comp := tr.add(root, 0, "compile", at(10), at(60))
	tr.add(comp, 0, "compile/Lexing", at(10), at(30))
	tr.add(comp, 0, "compile/Parsing", at(25), at(50)) // overlaps Lexing by 5
	tr.add(root, 0, "run", at(60), at(90))
	tr.add(root, 0, "run", at(95), at(120)) // runs past its parent: clipped

	self := selfTimes(tr.spans)
	want := []int64{100 - 50 - 30 - 5, 50 - 40, 20, 25, 30, 25}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got, want := attributedShare(tr.spans), 0.85; math.Abs(got-want) > 1e-9 {
		t.Errorf("attributedShare = %v, want %v", got, want)
	}
	rows := layerTable(tr.spans)
	if len(rows) != 5 || rows[4].Layer != "run" || rows[4].Count != 2 ||
		math.Abs(rows[4].TotalMS-55e-6) > 1e-12 || math.Abs(rows[4].SelfMS-55e-6) > 1e-12 {
		t.Errorf("layerTable = %+v", rows)
	}
	var nilTracer *tracer
	if id := nilTracer.add(-1, 0, "op", at(0), at(1)); id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestCompareAA(t *testing.T) {
	mk := func(p50, ops float64) []*report {
		m := map[string]summary{}
		for _, d := range endToEnd {
			m[d.Name] = summary{Value: 1}
		}
		m["op_ms_p50"] = summary{Value: p50}
		m["ops_per_s"] = summary{Value: ops}
		return []*report{{Workload: "w", Metrics: m}}
	}
	// op_ms_p50 (lower is better) and ops_per_s (higher is better) both
	// carry a 25 % bound.
	if !compareAA(io.Discard, mk(10, 100), mk(12.4, 76)) {
		t.Error("differences inside the bounds were rejected")
	}
	if compareAA(io.Discard, mk(10, 100), mk(12.6, 100)) {
		t.Error("a latency 26% worse passed a 25% bound")
	}
	if compareAA(io.Discard, mk(10, 100), mk(10, 74)) {
		t.Error("a throughput 26% worse passed a 25% bound")
	}
	if !compareAA(io.Discard, mk(10, 100), mk(5, 200)) {
		t.Error("an improvement was rejected")
	}
}

// TestSmoke drives every workload through both kinds of run on the smoke
// plan: one 20-operation segment, a handful of runs per probe. It checks
// what the driver relies on — every declared metric is reported and every
// operation's output is correct — not any timing.
func TestSmoke(t *testing.T) {
	p := smokePlan()
	outDir := t.TempDir()
	for _, w := range workloads {
		e2e, err := runE2E(w, 7, p)
		if err != nil {
			t.Fatal(err)
		}
		if e2e.Failed != 0 || e2e.Attempted < p.seg.Ops {
			t.Errorf("%s e2e: attempted %d failed %d (%s)", w.name, e2e.Attempted, e2e.Failed, e2e.FirstErr)
		}
		for _, m := range endToEnd {
			// slo_ok_share depends on how fast the host is (0 under the race
			// detector); every other metric is positive on any host.
			s, ok := e2e.Metrics[m.Name]
			if !ok || s.Unit != m.Unit || (s.Value <= 0 && m.Name != "slo_ok_share") {
				t.Errorf("%s e2e: metric %s = %+v", w.name, m.Name, s)
			}
		}

		traced, err := runTraced(w, 7, p, outDir)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 {
			t.Errorf("%s traced: failed %d (%s)", w.name, traced.Failed, traced.FirstErr)
		}
		for _, m := range perLayer {
			if _, ok := traced.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: metric %s missing", w.name, m.Name)
			}
		}
		if v := traced.Metrics["value.leak_runs"].Value; v != 0 {
			t.Errorf("%s traced: %v leaked runs", w.name, v)
		}
		if v := traced.Metrics["runtime.nodes_per_run"].Value; v <= 0 {
			t.Errorf("%s traced: runtime.nodes_per_run = %v", w.name, v)
		}
		if v := traced.Metrics["trace.attributed_share"].Value; v < 0.9 || v > 1 {
			t.Errorf("%s traced: trace.attributed_share = %v", w.name, v)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		data, err := os.ReadFile(traced.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: %v", traced.TraceFile, err)
		}
		if len(file.Spans) < traced.Attempted {
			t.Errorf("%s: %d spans for %d operations", w.name, len(file.Spans), traced.Attempted)
		}

		line := resultLine([]*report{e2e})
		if !line.Correct || line.Attempted != e2e.Attempted || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %+v", w.name, line)
		}
	}
}
