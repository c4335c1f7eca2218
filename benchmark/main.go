// Command benchmark is the repository's benchmark: four workloads that each
// stress a different layer, eight end-to-end metrics on every one of them,
// and — in a separate traced run — a per-layer ledger measured from outside,
// through the packages' public functions only. BENCHMARK.json at the root of
// the repository declares the metrics and their regression bounds; README.md
// beside this file says why each workload and metric is there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef is one declared metric. BENCHMARK.json repeats these tables; a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The timing bounds are as wide as BENCHMARK.json allows. On the shared
// 2-core box the numbers were taken on, the same code drifts by 10–15 % over
// minutes as the host's other tenants come and go; a tighter bound would
// reject unchanged code. The allocation counts repeat to a few hundredths of
// a percent, and their bounds are tight accordingly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p95", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_kb_per_op", "KiB", "lower", 0.01},
	{"slo_ok_share", "ratio", "higher", 0.02},
}

var perLayer = []metricDef{
	{Name: "compile.lex_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.macro_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.sema_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.opt_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.graph_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.memplan_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.fuse_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.affinity_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.src_kb_per_s", Unit: "KiB/s", Better: "higher"},
	{Name: "compile.allocs_per_compile", Unit: "count", Better: "lower"},
	{Name: "compile.nodes_out", Unit: "count", Better: "lower"},
	{Name: "compile.opt_rewrites", Unit: "count", Better: "higher"},
	{Name: "runtime.engine_new_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.cold_run_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.warm_run_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.reset_us", Unit: "us", Better: "lower"},
	{Name: "runtime.ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "runtime.nodes_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.operators_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.activations_alloc_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.activations_reused_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.fused_nodes_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.steals_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.parks_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.steal_contention_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.injected_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.affinity_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.serial_run_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.speedup_2w", Unit: "ratio", Better: "higher"},
	{Name: "runtime.coord_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.trace_on_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.deadline_ratio.queens6", Unit: "ratio", Better: "lower"},
	{Name: "runtime.deadline_ratio.jacobi16", Unit: "ratio", Better: "lower"},
	{Name: "operator.body_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "value.blocks_alloc_per_run", Unit: "count", Better: "lower"},
	{Name: "value.copies_per_run", Unit: "count", Better: "lower"},
	{Name: "value.retains_per_run", Unit: "count", Better: "lower"},
	{Name: "value.releases_per_run", Unit: "count", Better: "lower"},
	{Name: "value.pooled_alloc_share", Unit: "ratio", Better: "higher"},
	{Name: "value.elided_refops_per_run", Unit: "count", Better: "higher"},
	{Name: "value.leak_runs", Unit: "count", Better: "lower"},
	{Name: "server.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.hop_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50.queens4", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50.fib", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50.queens6", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50.jacobi16", Unit: "ms", Better: "lower"},
	{Name: "server.execute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.http_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.register_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.engine_reused_share", Unit: "ratio", Better: "higher"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "server.max_ok_rate", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.ok", Unit: "count", Better: "higher"},
	{Name: "loadgen.failed", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"},
}

// environment is recorded in every report.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// NoisyHost is set when the 1-minute load average at the start already
	// exceeded nproc/2: timings from such a run deserve suspicion.
	NoisyHost bool `json:"noisy_host"`
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 on a malformed file is the documented fallback
	return v
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func startEnvironment() environment {
	load := loadAverage()
	n := goruntime.NumCPU()
	return environment{NProc: n, GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(),
		Commit: commit(), LoadStart: load, NoisyHost: load > float64(n)/2}
}

// report is everything one run of one workload produced.
type report struct {
	Workload  string             `json:"workload"`
	Mode      string             `json:"mode"`
	Seed      int64              `json:"seed"`
	Env       environment        `json:"env"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Samples   int                `json:"samples"`
	SegOps    []int              `json:"segment_ops"`
	SegWallS  []float64          `json:"segment_wall_s"`
	SetupS    []float64          `json:"setup_s_each,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    []layerRow         `json:"layers,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	FirstErr  string             `json:"first_error,omitempty"`
}

func (r *report) addSegment(s segment) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.Samples += len(s.latMS)
	r.SegOps = append(r.SegOps, s.attempted)
	r.SegWallS = append(r.SegWallS, s.wall.Seconds())
	if r.FirstErr == "" && s.firstErr != nil {
		r.FirstErr = s.firstErr.Error()
	}
}

// runE2E is one end-to-end run: the timed set-ups, then the measured
// segments on the last instance set up.
func runE2E(w workload, seed int64, p plan) (*report, error) {
	r := &report{Workload: w.name, Mode: "e2e", Seed: seed, Env: startEnvironment(), Metrics: map[string]summary{}}
	var inst instance
	for i := 0; i < p.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		goruntime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setUp(seed, p); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	perSeg := map[string][]float64{}
	for i := 0; i < p.segments; i++ {
		s := inst.segment(p.seg, nil)
		r.addSegment(s)
		for name, v := range s.perSegment() {
			perSeg[name] = append(perSeg[name], v)
		}
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	perSeg["setup_s"] = r.SetupS
	for _, m := range endToEnd {
		r.Metrics[m.Name] = summarize(perSeg[m.Name], m.Unit)
	}
	r.Env.LoadEnd = loadAverage()
	return r, nil
}

// runTraced is one traced run: an untraced segment for the base rate, the
// same segment again with spans recorded, then the layer probes. Every
// declared per-layer metric is measured on every workload (only the rate
// ladder behind server.max_ok_rate is serve_open's alone).
func runTraced(w workload, seed int64, p plan, outDir string) (*report, error) {
	r := &report{Workload: w.name, Mode: "traced", Seed: seed, Env: startEnvironment(), Metrics: map[string]summary{}}
	inst, err := w.setUp(seed, p)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	plain := inst.segment(p.seg, nil)
	tr := newTracer()
	traced := inst.segment(p.seg, tr)
	r.addSegment(traced)

	vals := make(map[string]float64)
	if err := inst.layers(vals, seed, p); err != nil {
		inst.close()
		return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	vals["loadgen.sent"] = float64(traced.attempted)
	vals["loadgen.ok"] = float64(len(traced.latMS))
	vals["loadgen.failed"] = float64(traced.failed)
	vals["trace.overhead_ratio"] = ratio(traced.perSegment()["ops_per_s"], plain.perSegment()["ops_per_s"])
	vals["trace.attributed_share"] = attributedShare(tr.spans)
	for _, m := range perLayer {
		v := vals[m.Name]
		r.Metrics[m.Name] = summary{Value: v, Min: v, Max: v, Unit: m.Unit}
	}
	r.Layers = layerTable(tr.spans)
	r.Env.LoadEnd = loadAverage()

	r.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeJSON(r.TraceFile, map[string]any{"report": r, "spans": tr.spans}); err != nil {
		return nil, err
	}
	return r, nil
}

// repoRoot is the directory that holds BENCHMARK.json: the working directory
// or the nearest one above it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the human-readable form to out (standard error, so that
// standard output carries only the result line).
func printReport(out io.Writer, r *report) {
	defs := endToEnd
	if r.Mode == "traced" {
		defs = perLayer
	}
	e := r.Env
	fmt.Fprintf(out, "%s  mode=%s seed=%d  nproc=%d GOMAXPROCS=%d %s commit=%s  load1 %.2f→%.2f noisy_host=%v\n",
		r.Workload, r.Mode, r.Seed, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.LoadStart, e.LoadEnd, e.NoisyHost)
	fmt.Fprintf(out, "  ops_attempted=%d ops_failed=%d samples=%d segment_ops=%v\n", r.Attempted, r.Failed, r.Samples, r.SegOps)
	if r.FirstErr != "" {
		fmt.Fprintf(out, "  first error: %s\n", r.FirstErr)
	}
	for _, m := range defs {
		s := r.Metrics[m.Name]
		fmt.Fprintf(out, "  %-36s %14.4f %-6s", m.Name, s.Value, s.Unit)
		if r.Mode == "e2e" {
			fmt.Fprintf(out, " (segments min %.4f max %.4f)", s.Min, s.Max)
		}
		fmt.Fprintln(out)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(out, "  %-28s %8s %12s %12s\n", "layer", "count", "total_ms", "self_ms")
		for _, l := range r.Layers {
			fmt.Fprintf(out, "  %-28s %8d %12.3f %12.3f\n", l.Layer, l.Count, l.TotalMS, l.SelfMS)
		}
		fmt.Fprintf(out, "  spans written to %s\n", r.TraceFile)
	}
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine folds reports into one result; with several workloads the
// metric names are prefixed with the workload's.
func resultLine(reports []*report) result {
	res := result{Metrics: map[string]resultValue{}}
	for _, r := range reports {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for name, s := range r.Metrics {
			if len(reports) > 1 {
				name = r.Workload + "/" + name
			}
			res.Metrics[name] = resultValue{Value: s.Value, Unit: s.Unit}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// compareAA prints, per workload and end-to-end metric, the medians of two
// back-to-back runs of the same code, their relative difference and the
// bound, and reports whether every difference is within its bound.
func compareAA(out io.Writer, a, b []*report) bool {
	ok := true
	fmt.Fprintf(out, "%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].Metrics[m.Name].Value, b[i].Metrics[m.Name].Value
			diff := ratio(y-x, x)
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > m.Bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(out, "%-14s %-16s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n",
				a[i].Workload, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1990, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per workload, split over five segments")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end run")
	mode := fs.String("mode", "", "e2e, traced, or aa (end-to-end twice, compared); default follows -trace")
	outFile := fs.String("out", "", "also write the full reports to this JSON file")
	smoke := fs.Bool("smoke", false, "one 20-operation segment per workload instead of -seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode == "" {
		*mode = map[int]string{0: "e2e", 1: "traced"}[*trace]
	}
	if *mode != "e2e" && *mode != "traced" && *mode != "aa" {
		return fmt.Errorf("unknown mode %q (want e2e, traced or aa; -trace takes 0 or 1)", *mode)
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	p := fullPlan(*seconds)
	if *smoke {
		p = smokePlan()
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")

	runAll := func(mode string) ([]*report, error) {
		var reports []*report
		for _, w := range selected {
			var r *report
			var err error
			if mode == "traced" {
				r, err = runTraced(w, *seed, p, outDir)
			} else {
				r, err = runE2E(w, *seed, p)
			}
			if err != nil {
				return nil, err
			}
			printReport(os.Stderr, r)
			reports = append(reports, r)
		}
		return reports, nil
	}

	// In aa mode the second pass is the one reported; both are written out.
	pass := *mode
	if pass == "aa" {
		pass = "e2e"
	}
	reports, err := runAll(pass)
	if err != nil {
		return err
	}
	written, withinBounds := reports, true
	if *mode == "aa" {
		first := reports
		if reports, err = runAll(pass); err != nil {
			return err
		}
		withinBounds = compareAA(os.Stderr, first, reports)
		written = append(first, reports...)
	}
	if *outFile != "" {
		if err := writeJSON(*outFile, written); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine(reports))
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	if !withinBounds {
		return errors.New("two runs of the same code differ by more than a metric's bound")
	}
	// Slow operations lower slo_ok_share but do not fail the command: on a
	// shared host a stall is the host's. Wrong outputs and leaks do.
	var bad []string
	for _, r := range reports {
		if r.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d of %d operations failed (%s)", r.Workload, r.Failed, r.Attempted, r.FirstErr))
		}
		if leaks := r.Metrics["value.leak_runs"].Value; leaks != 0 {
			bad = append(bad, fmt.Sprintf("%s: %v probe runs leaked blocks", r.Workload, leaks))
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}
