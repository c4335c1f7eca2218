// Package experiments regenerates every table and figure of the paper's
// evaluation, as indexed in DESIGN.md and recorded in EXPERIMENTS.md:
//
//	fig1   Figure 1 — retina speedup on a (simulated) Cray Y-MP, 1–4 procs
//	tab1   Table 1 — per-pass compiler times, sequential vs parallel n=3
//	tab2   Table 2 — coordination model comparison (taxonomy)
//	lst1   §5.2 unbalanced node-timing listing (post_up dominates)
//	lst2   §5.2 balanced node-timing listing (update_bite balanced)
//	ovh    §7 runtime overhead (< 3 %, < 1 % on the retina model)
//	prio   §7 priority-scheme ablation (peak live activations)
//	aff    §9.3 affinity ablation on the NUMA Butterfly profile
//	walks  §6.2 parallel tree-walk scaling
//	queens §3 example (92 solutions, deterministic order)
//	faults fault-tolerance acceptance: every retina operator killed once,
//	       retried, output bit-identical to the fault-free run
//	thru   throughput mode: fresh engine per run vs one reused engine
//	       (RunMany), results bit-identical, reuse speedup reported
//	stress differential stress harness: seeded random coordination graphs
//	       through the executor × workers × reuse × faults
//	       matrix, bit-identity and block accounting on every run
//
// Absolute numbers depend on the host and the virtual-machine calibration;
// the experiments reproduce the paper's *shapes*: who wins, by roughly what
// factor, and where the crossovers fall.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/jacobi"
	"repro/internal/machine"
	"repro/internal/queens"
	"repro/internal/retina"
	"repro/internal/runtime"
	"repro/internal/selfcomp"
	"repro/internal/stress"
	"repro/internal/trace"
	"repro/internal/treewalk"
	"repro/internal/value"
)

// Fig1Config is the retina workload used for Figure 1.
func Fig1Config() retina.Config {
	return retina.Config{W: 64, H: 64, K: 5, Slabs: 4, Timesteps: 3,
		TargetsPerQuarter: 16, TargetWork: 1600, Seed: 1990}
}

// Fig1Row is one point of the speedup curve.
type Fig1Row struct {
	Procs     int
	SpeedupV1 float64 // first parallelization (§5.1)
	SpeedupV2 float64 // balanced version (§5.2), the Figure 1 curve
}

// Fig1 reproduces Figure 1: retina-model speedup over the sequential
// version on a simulated Cray Y-MP with one to four processors, for both
// program versions.
func Fig1() ([]Fig1Row, error) {
	cfg := Fig1Config()
	mach := machine.CrayYMP()
	makespan := func(v retina.Version, procs int) (int64, error) {
		_, eng, err := retina.Run(cfg, v, runtime.Config{
			Mode: runtime.Simulated, Workers: procs, Machine: mach, MaxOps: 50_000_000})
		if err != nil {
			return 0, err
		}
		return eng.Stats().MakespanTicks, nil
	}
	base1, err := makespan(retina.V1, 1)
	if err != nil {
		return nil, err
	}
	base2, err := makespan(retina.V2, 1)
	if err != nil {
		return nil, err
	}
	var rows []Fig1Row
	for procs := 1; procs <= 4; procs++ {
		t1, err := makespan(retina.V1, procs)
		if err != nil {
			return nil, err
		}
		t2, err := makespan(retina.V2, procs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig1Row{
			Procs:     procs,
			SpeedupV1: float64(base1) / float64(t1),
			SpeedupV2: float64(base2) / float64(t2),
		})
	}
	return rows, nil
}

// Fig1Text renders the Figure 1 reproduction.
func Fig1Text() (string, error) {
	rows, err := Fig1()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 1: Retina Simulation on (simulated) Cray Y-MP\n")
	b.WriteString("paper reports speedups ~1.0 / ~2.0 / ~2.0 / 3.3 for the balanced version\n\n")
	fmt.Fprintf(&b, "%-11s %-22s %-22s\n", "Processors", "Speedup (balanced)", "Speedup (unbalanced)")
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.SpeedupV2*10+0.5))
		fmt.Fprintf(&b, "%-11d %-22.2f %-22.2f %s\n", r.Procs, r.SpeedupV2, r.SpeedupV1, bar)
	}
	return b.String(), nil
}

// Table1 reproduces Table 1 with the self-hosted parallel compiler (case
// study #2): the compiler's passes run as Delirium operators, coordinated
// by a Delirium program, on a simulated Sequent Symmetry with 1 and with
// `workers` processors. Deterministic.
func Table1(funcs, workers int) (seq, par *selfcomp.Result, err error) {
	src := compile.Generate(funcs, 1990)
	seq, err = selfcomp.Compile("workload.dlr", src, nil, runtime.Simulated, 1)
	if err != nil {
		return nil, nil, err
	}
	par, err = selfcomp.Compile("workload.dlr", src, nil, runtime.Simulated, workers)
	if err != nil {
		return nil, nil, err
	}
	return seq, par, nil
}

// Table1Text renders the Table 1 reproduction.
func Table1Text(funcs, workers int) (string, error) {
	return selfcomp.Table1Text(funcs, workers)
}

// Table1WallText renders the secondary, wall-clock variant: the same
// self-hosted compiler on Real workers, 1 vs `workers`, each column the
// fastest of `repeats` runs. On machines with few cores the speedups are
// capped accordingly; the simulated Table1Text is the primary
// reproduction.
func Table1WallText(funcs, workers, repeats int) (string, error) {
	src := compile.Generate(funcs, 1990)
	best := func(n int) (*selfcomp.Result, error) {
		var b *selfcomp.Result
		for i := 0; i < max(repeats, 1); i++ {
			r, err := selfcomp.Compile("workload.dlr", src, nil, runtime.Real, n)
			if err != nil {
				return nil, err
			}
			if b == nil || r.TotalTicks < b.TotalTicks {
				b = r
			}
		}
		return b, nil
	}
	seq, err := best(1)
	if err != nil {
		return "", err
	}
	par, err := best(workers)
	if err != nil {
		return "", err
	}
	head := fmt.Sprintf("Table 1 (wall-clock variant): %d synthetic functions, %d Real workers on this host; times in msec\n\n",
		funcs, workers)
	return head + selfcomp.Table(seq, par, workers), nil
}

// Table2Row is one taxonomy entry.
type Table2Row struct {
	Language string
	Model    string
	Notation string
}

// Table2 reproduces the coordination-model comparison of §8 verbatim.
func Table2() []Table2Row {
	return []Table2Row{
		{"Delirium", "restricted shared data", "embedding"},
		{"ADA", "rendezvous", "embedded"},
		{"OCCAM", "protocol", "embedded"},
		{"RPC", "protocol", "embedded"},
		{"Linda", "shared database", "embedded"},
		{"Concurrent Prolog", "shared variables", "radical"},
		{"ALFL", "shared data", "radical"},
		{"Enhanced Fortran/C", "task-oriented", "embedded"},
		{"Emerald/Sloop", "protocol", "embedded"},
	}
}

// Table2Text renders Table 2.
func Table2Text() string {
	var b strings.Builder
	b.WriteString("Table 2: Coordination Model Comparison\n\n")
	fmt.Fprintf(&b, "%-20s %-24s %-10s\n", "Language", "Coordination Model", "Notation")
	for _, r := range Table2() {
		fmt.Fprintf(&b, "%-20s %-24s %-10s\n", r.Language, r.Model, r.Notation)
	}
	return b.String()
}

// listingConfig is the smaller retina run used for the §5.2 listings.
func listingConfig() retina.Config {
	return retina.Config{W: 64, H: 64, K: 5, Slabs: 4, Timesteps: 1,
		TargetsPerQuarter: 16, TargetWork: 400, Seed: 1990}
}

// Listing reproduces the §5.2 node-timing listings: the unbalanced version
// shows post_up taking as long as all four convol_bites combined; the
// balanced version shows update_split/update_bite/done_up in near-perfect
// balance. Times are virtual ticks of the simulated Cray. A critical-path
// footer makes the diagnosis mechanical: the unbalanced run reports post_up
// serialized on the path, the balanced run reports no dominating operator.
func Listing(v retina.Version) (string, error) {
	eng, err := runListing(v)
	if err != nil {
		return "", err
	}
	var filter map[string]bool
	if v == retina.V1 {
		filter = map[string]bool{"convol_split": true, "convol_bite": true, "post_up": true, "incr": true}
	} else {
		filter = map[string]bool{"convol_split": true, "convol_bite": true,
			"update_split": true, "update_bite": true, "done_up": true}
	}
	head := fmt.Sprintf("Node timings, %s version (ticks of the simulated Cray clock):\n", v)
	out := head + eng.Timing().Listing(filter)
	if cp := eng.Trace().CriticalPath(); cp != nil {
		out += "\n" + cp.Report()
	}
	return out, nil
}

// runListing performs the §5.2 measurement run with timing and tracing on.
func runListing(v retina.Version) (*runtime.Engine, error) {
	_, eng, err := retina.Run(listingConfig(), v, runtime.Config{
		Mode: runtime.Simulated, Workers: 1, Timing: true, Trace: true,
		Machine: machine.CrayYMP(), MaxOps: 50_000_000})
	return eng, err
}

// ListingCritPath runs the §5.2 measurement and returns just the
// critical-path analysis — the mechanical form of the paper's diagnosis.
func ListingCritPath(v retina.Version) (*trace.CritPath, error) {
	eng, err := runListing(v)
	if err != nil {
		return nil, err
	}
	return eng.Trace().CriticalPath(), nil
}

// Overhead reproduces the §7 claim: runtime system overhead under three
// percent generally and under one percent for the retina model on four
// processors. Returns the overhead fraction.
func Overhead() (float64, error) {
	_, eng, err := retina.Run(Fig1Config(), retina.V2, runtime.Config{
		Mode: runtime.Simulated, Workers: 4, Machine: machine.CrayYMP(), MaxOps: 50_000_000})
	if err != nil {
		return 0, err
	}
	return eng.Stats().OverheadFraction(), nil
}

// OverheadText renders the overhead measurement.
func OverheadText() (string, error) {
	f, err := Overhead()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("Runtime overhead on retina model, 4 simulated processors: %.2f%%\n"+
		"paper: \"less than one percent\" on the Cray Y-MP (§7); \"<3%%\" generally (§1)\n",
		f*100), nil
}

// PriorityResult is the §7 ablation outcome.
type PriorityResult struct {
	N                  int
	PeakWithPriorities int64
	PeakFIFO           int64
	Solutions          int
}

// Priority measures peak live template activations for n-queens with the
// three-level priority ready queue versus a single FIFO level.
func Priority(n int) (*PriorityResult, error) {
	res := &PriorityResult{N: n}
	for _, disable := range []bool{false, true} {
		sols, eng, err := queens.Run(n, runtime.Config{
			Mode: runtime.Simulated, Workers: 4, MaxOps: 50_000_000,
			DisablePriorities: disable})
		if err != nil {
			return nil, err
		}
		res.Solutions = len(sols)
		if disable {
			res.PeakFIFO = eng.Stats().PeakLive
		} else {
			res.PeakWithPriorities = eng.Stats().PeakLive
		}
	}
	return res, nil
}

// PriorityText renders the ablation.
func PriorityText(n int) (string, error) {
	r, err := Priority(n)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("Priority scheme ablation (%d-queens, %d solutions, 4 simulated procs):\n"+
		"  peak live activations with 3-level priorities: %d\n"+
		"  peak live activations with a single FIFO:      %d   (%.1fx more)\n"+
		"paper (§7): the priority scheme reduces the number of template activations\n",
		r.N, r.Solutions, r.PeakWithPriorities, r.PeakFIFO,
		float64(r.PeakFIFO)/float64(r.PeakWithPriorities)), nil
}

// AffinityRow is one policy's outcome on one machine.
type AffinityRow struct {
	Machine  string
	Policy   runtime.AffinityPolicy
	Makespan int64
	MemTicks int64
}

// Affinity reproduces the §9.3 exploration: the retina model under the
// none/operator/data policies on the NUMA Butterfly profile (where remote
// access costs 6x local) and on the UMA Cray (where affinity is moot).
func Affinity() ([]AffinityRow, error) {
	cfg := retina.Config{W: 48, H: 48, K: 5, Slabs: 4, Timesteps: 2,
		TargetsPerQuarter: 12, TargetWork: 800, Seed: 1990}
	var rows []AffinityRow
	for _, mach := range []*machine.Profile{machine.Butterfly().WithProcs(4), machine.CrayYMP()} {
		for _, pol := range []runtime.AffinityPolicy{runtime.AffinityNone, runtime.AffinityOperator, runtime.AffinityData} {
			_, eng, err := retina.Run(cfg, retina.V2, runtime.Config{
				Mode: runtime.Simulated, Workers: mach.Procs, Machine: mach,
				Affinity: pol, MaxOps: 50_000_000})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AffinityRow{
				Machine:  mach.Name,
				Policy:   pol,
				Makespan: eng.Stats().MakespanTicks,
				MemTicks: eng.Stats().MemoryTicks,
			})
		}
	}
	return rows, nil
}

// AffinityText renders the affinity ablation.
func AffinityText() (string, error) {
	rows, err := Affinity()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Affinity scheduling (§9.3), retina model, 4 processors:\n\n")
	fmt.Fprintf(&b, "%-22s %-10s %14s %14s\n", "Machine", "Policy", "Makespan", "Memory ticks")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-10s %14d %14d\n", r.Machine, r.Policy, r.Makespan, r.MemTicks)
	}
	b.WriteString("\npaper: affinity \"of some use\" on the Cray, \"particularly important\"\n" +
		"on NUMA architectures like the Butterfly\n")
	return b.String(), nil
}

// WalksRow is one tree-walk scaling point.
type WalksRow struct {
	Strategy string
	Workers  int
	Nanos    int64
}

// Walks measures the three §6.2 tree-walk strategies on a large weighted
// tree across worker counts (wall-clock; shape only).
func Walks(nodes int, workerCounts []int, repeats int) []WalksRow {
	var rows []WalksRow
	for _, workers := range workerCounts {
		rows = append(rows,
			WalksRow{"top-down", workers, timeWalk(repeats, func(root *treewalk.Node) {
				treewalk.TopDown(root, workers, func(n *treewalk.Node) {
					n.Data = busy(n.Data.(int))
				})
			}, nodes)},
			WalksRow{"inherited", workers, timeWalk(repeats, func(root *treewalk.Node) {
				treewalk.Inherited(root, workers, 0, func(n *treewalk.Node, in interface{}) interface{} {
					return busy(in.(int)) + 1
				})
			}, nodes)},
			WalksRow{"synthesized", workers, timeWalk(repeats, func(root *treewalk.Node) {
				treewalk.Synthesized(root, workers, func(n *treewalk.Node, ch []interface{}) interface{} {
					t := busy(n.Data.(int))
					for _, c := range ch {
						t += c.(int)
					}
					return t
				})
			}, nodes)},
		)
	}
	return rows
}

// WalksText renders the scaling table.
func WalksText(nodes int, workerCounts []int, repeats int) string {
	rows := Walks(nodes, workerCounts, repeats)
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel tree walking (§6.2), %d-node tree (wall-clock, min of %d):\n\n", nodes, repeats)
	fmt.Fprintf(&b, "%-13s", "Strategy")
	for _, w := range workerCounts {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("n=%d", w))
	}
	b.WriteString("   (ms; speedup vs n=1)\n")
	byStrategy := map[string][]WalksRow{}
	order := []string{"top-down", "inherited", "synthesized"}
	for _, r := range rows {
		byStrategy[r.Strategy] = append(byStrategy[r.Strategy], r)
	}
	for _, s := range order {
		fmt.Fprintf(&b, "%-13s", s)
		base := byStrategy[s][0].Nanos
		for _, r := range byStrategy[s] {
			fmt.Fprintf(&b, " %8.2f", float64(r.Nanos)/1e6)
			_ = base
		}
		b.WriteString("  ")
		for _, r := range byStrategy[s] {
			fmt.Fprintf(&b, " %5.2fx", float64(base)/float64(r.Nanos))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// OptRow reports one optimization level's effect on a workload.
type OptRow struct {
	Level      string
	GraphNodes int
	OpsRun     int64
	Makespan   int64
}

// OptAblation quantifies §6.1's motivation for the optimizer —
// "unnecessary nodes in the graph translate into extra overhead at
// run-time" — by compiling the same workload at each optimization level
// and executing it on one simulated processor.
func OptAblation(funcs int) ([]OptRow, error) {
	src := compile.Generate(funcs, 1990)
	levels := []struct {
		name string
		lvl  int
	}{{"none", -1}, {"local", 1}, {"full", 2}}
	var rows []OptRow
	for _, l := range levels {
		res, err := compile.Compile("w.dlr", src, compile.Options{OptLevel: l.lvl})
		if err != nil {
			return nil, err
		}
		eng := runtime.New(res.Program, runtime.Config{
			Mode: runtime.Simulated, Workers: 1, MaxOps: 50_000_000})
		if _, err := eng.Run(); err != nil {
			return nil, err
		}
		rows = append(rows, OptRow{
			Level:      l.name,
			GraphNodes: res.Program.NodeCount(),
			OpsRun:     eng.Stats().OpsExecuted,
			Makespan:   eng.Stats().MakespanTicks,
		})
	}
	return rows, nil
}

// OptAblationText renders the optimizer ablation.
func OptAblationText(funcs int) (string, error) {
	rows, err := OptAblation(funcs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Optimizer ablation (§6.1), %d-function workload, 1 simulated processor:\n\n", funcs)
	fmt.Fprintf(&b, "%-8s %12s %16s %14s\n", "Level", "graph nodes", "executed nodes", "makespan")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12d %16d %14d\n", r.Level, r.GraphNodes, r.OpsRun, r.Makespan)
	}
	base, full := rows[0], rows[len(rows)-1]
	fmt.Fprintf(&b, "\nfull optimization removes %.0f%% of graph nodes and %.0f%% of scheduled\n"+
		"executions (\"unnecessary nodes in the graph translate into extra\n"+
		"overhead at run-time\", §6.1)\n",
		100*(1-float64(full.GraphNodes)/float64(base.GraphNodes)),
		100*(1-float64(full.OpsRun)/float64(base.OpsRun)))
	return b.String(), nil
}

// MemoryRow reports the template-vs-activation memory split for one
// workload (§7: "templates represent over 80% of the memory used by the
// runtime system at a given time", which justifies replicating them in
// processor-local memory).
type MemoryRow struct {
	Workload        string
	TemplateWords   int64
	PeakActivationW int64
	Fraction        float64 // templates / (templates + peak activations)
}

// Memory measures the split on the retina model and the queens program.
func Memory() ([]MemoryRow, error) {
	var rows []MemoryRow

	_, eng, err := retina.Run(listingConfig(), retina.V2, runtime.Config{
		Mode: runtime.Simulated, Workers: 4, MaxOps: 50_000_000})
	if err != nil {
		return nil, err
	}
	prog, err := retina.CompileProgram(listingConfig(), retina.V2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, memRow("retina (balanced)", int64(prog.MemoryWords()), eng.Stats().PeakActivationWords))

	qprog, err := queens.CompileProgram(7)
	if err != nil {
		return nil, err
	}
	_, qeng, err := queens.Run(7, runtime.Config{Mode: runtime.Simulated, Workers: 4, MaxOps: 50_000_000})
	if err != nil {
		return nil, err
	}
	rows = append(rows, memRow("7-queens", int64(qprog.MemoryWords()), qeng.Stats().PeakActivationWords))
	return rows, nil
}

func memRow(name string, tmplWords, actWords int64) MemoryRow {
	return MemoryRow{
		Workload:        name,
		TemplateWords:   tmplWords,
		PeakActivationW: actWords,
		Fraction:        float64(tmplWords) / float64(tmplWords+actWords),
	}
}

// MemoryText renders the template-memory measurement.
func MemoryText() (string, error) {
	rows, err := Memory()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Runtime memory split (§7: templates are >80% of runtime memory):\n\n")
	fmt.Fprintf(&b, "%-20s %16s %22s %10s\n", "Workload", "template words", "peak activation words", "templates")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %16d %22d %9.1f%%\n",
			r.Workload, r.TemplateWords, r.PeakActivationW, r.Fraction*100)
	}
	b.WriteString("\nthe claim holds on the loop-structured retina model; the queens\n" +
		"backtracker is exactly the activation explosion the §7 priority scheme\n" +
		"exists to contain\n")
	return b.String(), nil
}

// retinaV2Ops lists the embedded operators of the balanced retina program.
var retinaV2Ops = []string{"set_up", "target_split", "target_bite", "pre_update",
	"convol_split", "convol_bite", "update_split", "update_bite", "done_up"}

// Faults runs the fault-tolerance acceptance experiment: the balanced
// retina model with every embedded operator killed exactly once — by an
// injected error and again by an injected panic — under deterministic
// retry, on both executors. Because retried attempts run on snapshots of
// their destructively-declared inputs, each faulted run's final scene must
// be bit-identical to the fault-free run.
func FaultsText(opTimeout time.Duration, retries int) (string, error) {
	cfg := listingConfig()
	if retries < 2 {
		retries = 3
	}
	base, _, err := retina.Run(cfg, retina.V2, runtime.Config{
		Mode: runtime.Simulated, Workers: 4, MaxOps: 50_000_000})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance: balanced retina model, every operator killed once,\n"+
		"retry max attempts %d, per-operator timeout %v\n\n", retries, opTimeout)
	fmt.Fprintf(&b, "%-10s %-7s %8s %8s %10s %10s  %s\n",
		"Mode", "Fault", "faults", "retries", "snapshots", "timeouts", "output")
	modes := []struct {
		name string
		mode runtime.Mode
	}{{"Simulated", runtime.Simulated}, {"Real", runtime.Real}}
	for _, m := range modes {
		for _, kind := range []runtime.FaultKind{runtime.FaultError, runtime.FaultPanic} {
			scene, eng, err := retina.Run(cfg, retina.V2, runtime.Config{
				Mode: m.mode, Workers: 4, MaxOps: 50_000_000,
				OpTimeout: opTimeout,
				Retry:     runtime.RetryPolicy{MaxAttempts: retries},
				Faults:    runtime.KillOnce(kind, retinaV2Ops...),
			})
			if err != nil {
				return "", fmt.Errorf("%s/%s faults: %w", m.name, kind, err)
			}
			verdict := "identical to fault-free run"
			if !retina.Equal(scene, base) {
				verdict = "DIVERGED from fault-free run"
			}
			st := eng.Stats()
			fmt.Fprintf(&b, "%-10s %-7s %8d %8d %10d %10d  %s\n",
				m.name, kind, st.FaultsInjected, st.Retries, st.SnapshotCopies,
				st.OpTimeouts, verdict)
		}
	}
	b.WriteString("\nretried attempts re-execute on snapshots of their destructively-declared\n" +
		"inputs, so recovery is invisible in the output (the §8 determinism\n" +
		"guarantee extended to failures)\n")
	return b.String(), nil
}

// ThroughputText measures the repeated-run fast path (ROADMAP item 2): N
// invocations of a small jacobi solve, a fresh engine per run versus one
// reused engine batching the stream through RunMany — warmed activation
// pools, persistent block free lists, and a reopened scheduler. Every reused
// result is checked bit-identical to the fresh baseline, so the speedup is
// reported over proven-equal work.
func ThroughputText(runs int) (string, error) {
	if runs <= 0 {
		runs = 200
	}
	prog, err := jacobi.CompileProgram(jacobi.Config{N: 8, Tol: 1e6})
	if err != nil {
		return "", err
	}
	cfg := runtime.Config{Mode: runtime.Real, Workers: 4, MaxOps: 100_000_000}

	// Fresh baseline: a new engine — scheduler, workers, cold pools — per run.
	var want *jacobi.State
	freshStart := time.Now()
	for i := 0; i < runs; i++ {
		v, err := runtime.New(prog, cfg).Run()
		if err != nil {
			return "", err
		}
		if want, err = jacobi.StateOf(v); err != nil {
			return "", err
		}
	}
	freshDur := time.Since(freshStart)

	// Throughput mode: one engine serves the whole stream.
	eng := runtime.New(prog, cfg)
	reusedStart := time.Now()
	results, err := eng.RunMany(context.Background(), make([][]value.Value, runs))
	if err != nil {
		return "", err
	}
	reusedDur := time.Since(reusedStart)
	identical := 0
	for i, r := range results {
		if r.Err != nil {
			return "", fmt.Errorf("reused run %d: %w", i, r.Err)
		}
		st, err := jacobi.StateOf(r.Value)
		if err != nil {
			return "", err
		}
		if jacobi.Matches(st, want) {
			identical++
		}
	}

	perFresh := freshDur / time.Duration(runs)
	perReused := reusedDur / time.Duration(runs)
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput mode: %d runs of a small jacobi solve (N=8), 4 workers\n\n", runs)
	fmt.Fprintf(&b, "%-22s %14s %12s\n", "engine", "per run", "runs/sec")
	fmt.Fprintf(&b, "%-22s %14v %12.0f\n", "fresh per run", perFresh.Round(time.Microsecond),
		float64(runs)/freshDur.Seconds())
	fmt.Fprintf(&b, "%-22s %14v %12.0f\n", "reused (RunMany)", perReused.Round(time.Microsecond),
		float64(runs)/reusedDur.Seconds())
	fmt.Fprintf(&b, "\nreuse speedup: %.2fx; %d/%d reused results bit-identical to the fresh baseline\n",
		float64(freshDur)/float64(reusedDur), identical, runs)
	if identical != runs {
		return "", fmt.Errorf("throughput: %d of %d reused results diverged from the fresh baseline",
			runs-identical, runs)
	}
	return b.String(), nil
}

// StressText drives the differential stress harness: seeds random
// coordination graphs through the full oracle matrix (9 run specs per
// seed), plus one large-graph seed at the ROADMAP's
// 10k-node floor, and reports bit-identity and invariant status. Any
// failing seed is shrunk automatically and the repro saved under
// testdata/regressions/.
func StressText(seeds int) (string, error) {
	if seeds <= 0 {
		seeds = 25
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Differential stress: %d seeds x %d run specs\n\n",
		seeds, len(stress.Specs()))
	fmt.Fprintf(&b, "%-8s %8s %8s  %s\n", "seed", "runs", "fails", "status")
	totalRuns, failedSeeds := 0, 0
	var totalFaults int64
	for seed := 0; seed < seeds; seed++ {
		p := stress.NewProgram(stress.GenConfig{Funcs: 32, Seed: int64(seed)})
		rep := stress.CheckProgram(p)
		totalRuns += rep.Runs
		totalFaults += rep.FaultsInjected
		status := "ok: bit-identical, Allocated==Freed"
		if !rep.OK() {
			failedSeeds++
			status = rep.Failures[0].String()
			shrunk, msg := stress.Shrink(p, stress.OracleCheck)
			if path, werr := stress.WriteRepro("testdata/regressions", shrunk, msg); werr == nil {
				status += " (shrunk repro: " + path + ")"
			}
		}
		fmt.Fprintf(&b, "%-8d %8d %8d  %s\n", seed, rep.Runs, len(rep.Failures), status)
	}

	// One large irregular graph (ROADMAP item 5's 10k-node floor) through
	// a reduced spec set to keep wall time sane.
	large := stress.NewProgram(stress.GenConfig{Funcs: 600, Seed: 1990})
	rep := stress.CheckSource("stress-large.dlr", large.Source(), stress.Specs()[:5])
	totalRuns += rep.Runs
	fmt.Fprintf(&b, "%-8s %8d %8d  600 funcs (>=10k graph nodes), executor/worker sweep\n",
		"large", rep.Runs, len(rep.Failures))
	if !rep.OK() {
		failedSeeds++
	}

	fmt.Fprintf(&b, "\n%d runs compared; every run checked for bit-identity against its seed's\n"+
		"reference and for block accounting (Allocated == Freed); %d faults injected\n"+
		"and retried across the fault legs\n", totalRuns, totalFaults)
	if failedSeeds > 0 {
		return b.String(), fmt.Errorf("stress: %d seed(s) failed the oracle", failedSeeds)
	}
	if totalFaults == 0 {
		return b.String(), fmt.Errorf("stress: fault legs never injected a fault — harness mis-wired")
	}
	b.WriteString("all seeds passed\n")
	return b.String(), nil
}

// QueensText runs the §3 example and reports count and determinism.
func QueensText() (string, error) {
	var first []string
	for _, workers := range []int{1, 4} {
		sols, _, err := queens.Run(8, runtime.Config{Mode: runtime.Real, Workers: workers, MaxOps: 50_000_000})
		if err != nil {
			return "", err
		}
		keys := make([]string, len(sols))
		for i, s := range sols {
			keys[i] = fmt.Sprint(s)
		}
		if first == nil {
			first = keys
			continue
		}
		if len(first) != len(keys) {
			return "", fmt.Errorf("queens: solution counts differ across worker counts")
		}
		for i := range keys {
			if keys[i] != first[i] {
				return "", fmt.Errorf("queens: solution order differs across worker counts")
			}
		}
	}
	return fmt.Sprintf("Eight queens (§3): %d solutions; order identical on 1 and 4 workers\n"+
		"first solution: %s\n", len(first), first[0]), nil
}
