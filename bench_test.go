// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured comparison):
//
//	BenchmarkFig1RetinaSpeedup    Figure 1 (speedup reported as a metric)
//	BenchmarkTable1CompilerPasses Table 1 via the self-hosted compiler
//	BenchmarkOverheadRetina       §7 overhead claim (<3%, <1% on retina)
//	BenchmarkPriorityAblation     §7 priority scheme (peak activations)
//	BenchmarkAffinityAblation     §9.3 affinity on the NUMA Butterfly
//	BenchmarkTreeWalks*           §6.2 walk strategies
//	BenchmarkQueens8              §3 example end to end (wall time)
//	BenchmarkSchedulerQueens      real-executor work stealing across worker counts
//	BenchmarkSchedulerJacobi      same, on the fork/join array workload
//	BenchmarkRayTrace             application throughput (wall time)
//	BenchmarkCircuitSim           application throughput (wall time)
//	BenchmarkDispatch             real-executor scheduling cost per operator
//	BenchmarkDispatchTraced       same loop with structured tracing enabled
//
// Custom metrics (speedup, overhead_pct, peak ratios) carry the shape
// results; ns/op carries the host cost of regenerating them.
package delirium_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/jacobi"
	"repro/internal/machine"
	"repro/internal/queens"
	"repro/internal/ray"
	"repro/internal/retina"
	rt "repro/internal/runtime"
	"repro/internal/selfcomp"
	"repro/internal/stress"
	"repro/internal/treewalk"
	"repro/internal/value"
)

// fig1Cfg is a reduced Figure 1 workload so the bench iterates quickly;
// the shape matches the full experiment.
func fig1Cfg() retina.Config {
	return retina.Config{W: 48, H: 48, K: 5, Slabs: 4, Timesteps: 2,
		TargetsPerQuarter: 12, TargetWork: 1200, Seed: 1990}
}

func BenchmarkFig1RetinaSpeedup(b *testing.B) {
	cfg := fig1Cfg()
	mach := machine.CrayYMP()
	var speedup float64
	for i := 0; i < b.N; i++ {
		makespan := func(procs int) int64 {
			_, eng, err := retina.Run(cfg, retina.V2, rt.Config{
				Mode: rt.Simulated, Workers: procs, Machine: mach, MaxOps: 50_000_000})
			if err != nil {
				b.Fatal(err)
			}
			return eng.Stats().MakespanTicks
		}
		speedup = float64(makespan(1)) / float64(makespan(4))
	}
	b.ReportMetric(speedup, "speedup4p")
}

func BenchmarkTable1CompilerPasses(b *testing.B) {
	src := compile.Generate(120, 1990)
	var total float64
	for i := 0; i < b.N; i++ {
		seq, err := selfcomp.Compile("w.dlr", src, nil, rt.Simulated, 1)
		if err != nil {
			b.Fatal(err)
		}
		par, err := selfcomp.Compile("w.dlr", src, nil, rt.Simulated, 3)
		if err != nil {
			b.Fatal(err)
		}
		total = float64(seq.TotalTicks) / float64(par.TotalTicks)
	}
	b.ReportMetric(total, "speedup3p")
}

func BenchmarkOverheadRetina(b *testing.B) {
	cfg := fig1Cfg()
	var frac float64
	for i := 0; i < b.N; i++ {
		_, eng, err := retina.Run(cfg, retina.V2, rt.Config{
			Mode: rt.Simulated, Workers: 4, Machine: machine.CrayYMP(), MaxOps: 50_000_000})
		if err != nil {
			b.Fatal(err)
		}
		frac = eng.Stats().OverheadFraction()
	}
	b.ReportMetric(frac*100, "overhead_pct")
}

func BenchmarkPriorityAblation(b *testing.B) {
	var withPri, fifo int64
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			_, eng, err := queens.Run(6, rt.Config{
				Mode: rt.Simulated, Workers: 4, MaxOps: 50_000_000, DisablePriorities: disable})
			if err != nil {
				b.Fatal(err)
			}
			if disable {
				fifo = eng.Stats().PeakLive
			} else {
				withPri = eng.Stats().PeakLive
			}
		}
	}
	b.ReportMetric(float64(withPri), "peak_priorities")
	b.ReportMetric(float64(fifo), "peak_fifo")
}

func BenchmarkAffinityAblation(b *testing.B) {
	cfg := retina.Config{W: 32, H: 32, K: 5, Slabs: 4, Timesteps: 2,
		TargetsPerQuarter: 8, TargetWork: 800, Seed: 1990}
	mach := machine.Butterfly().WithProcs(4)
	var gain float64
	for i := 0; i < b.N; i++ {
		run := func(pol rt.AffinityPolicy) int64 {
			_, eng, err := retina.Run(cfg, retina.V2, rt.Config{
				Mode: rt.Simulated, Workers: 4, Machine: mach, Affinity: pol, MaxOps: 50_000_000})
			if err != nil {
				b.Fatal(err)
			}
			return eng.Stats().MakespanTicks
		}
		gain = float64(run(rt.AffinityNone)) / float64(run(rt.AffinityData))
	}
	b.ReportMetric(gain, "numa_gain")
}

func benchWalk(b *testing.B, run func(root *treewalk.Node)) {
	b.Helper()
	root := treewalk.Build(200000, 4, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(root)
	}
}

func BenchmarkTreeWalksTopDown(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName(workers), func(b *testing.B) {
			benchWalk(b, func(root *treewalk.Node) {
				treewalk.TopDown(root, workers, func(n *treewalk.Node) {
					n.Weight = n.Weight ^ 1
				})
			})
		})
	}
}

func BenchmarkTreeWalksInherited(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName(workers), func(b *testing.B) {
			benchWalk(b, func(root *treewalk.Node) {
				treewalk.Inherited(root, workers, 0, func(n *treewalk.Node, in interface{}) interface{} {
					return in.(int) + 1
				})
			})
		})
	}
}

func BenchmarkTreeWalksSynthesized(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName(workers), func(b *testing.B) {
			benchWalk(b, func(root *treewalk.Node) {
				treewalk.Synthesized(root, workers, func(n *treewalk.Node, ch []interface{}) interface{} {
					t := 1
					for _, c := range ch {
						t += c.(int)
					}
					return t
				})
			})
		})
	}
}

func benchName(workers int) string {
	return "workers-" + string(rune('0'+workers))
}

func BenchmarkQueens8(b *testing.B) {
	prog, err := queens.CompileProgram(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := rt.New(prog, rt.Config{Mode: rt.Real, Workers: runtime.NumCPU(), MaxOps: 200_000_000})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScheduler measures Real-mode throughput of one program across
// worker counts and surfaces the work-stealing counters — the scheduler
// benchmark pair for the work-stealing ready queue (steals and parks per
// run tell whether the pool actually spread the work or slept on it).
func benchScheduler(b *testing.B, prog *graph.Program, maxOps int64) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			var steals, parks, contention float64
			for i := 0; i < b.N; i++ {
				eng := rt.New(prog, rt.Config{Mode: rt.Real, Workers: workers, MaxOps: maxOps})
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				st := eng.Stats()
				steals += float64(st.Steals)
				parks += float64(st.Parks)
				contention += float64(st.StealContention)
			}
			b.ReportMetric(steals/float64(b.N), "steals/run")
			b.ReportMetric(parks/float64(b.N), "parks/run")
			b.ReportMetric(contention/float64(b.N), "contended/run")
		})
	}
}

// BenchmarkSchedulerQueens stresses the recursive-expansion path: the
// backtracker floods the deques with PriRecursive work that thieves drain.
func BenchmarkSchedulerQueens(b *testing.B) {
	prog, err := queens.CompileProgram(7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchScheduler(b, prog, 200_000_000)
}

// BenchmarkSchedulerJacobi stresses the fork/join + data-dependent-loop
// path: four-way sweeps separated by sequential joins, so workers park and
// wake every iteration.
func BenchmarkSchedulerJacobi(b *testing.B) {
	prog, err := jacobi.CompileProgram(jacobi.Config{N: 64, Tol: 1e-2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchScheduler(b, prog, 100_000_000)
}

func BenchmarkRayTrace(b *testing.B) {
	cfg := ray.Config{W: 96, H: 64, MaxDepth: 3, Spheres: 6, Seed: 7}
	prog, err := ray.CompileProgram(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := rt.New(prog, rt.Config{Mode: rt.Real, Workers: runtime.NumCPU(), MaxOps: 10_000_000})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircuitSim(b *testing.B) {
	cfg := circuit.Config{Inputs: 32, Gates: 3000, Cycles: 10, Seed: 11}
	prog, err := circuit.CompileProgram(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := rt.New(prog, rt.Config{Mode: rt.Real, Workers: runtime.NumCPU(), MaxOps: 100_000_000})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDispatch measures the real executor's per-operator scheduling cost
// with a trivial-operator loop — the wall-clock analogue of the simulated
// dispatch overhead.
func benchDispatch(b *testing.B, copts compile.Options, cfg rt.Config) {
	b.Helper()
	src := `
main(n)
  iterate { i = 0, incr(i) } while lt(i, n), result i
`
	res, err := compile.Compile("spin.dlr", src, copts)
	if err != nil {
		b.Fatal(err)
	}
	const iters = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := rt.New(res.Program, cfg)
		if _, err := eng.Run(value.Int(iters)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/iters, "ns/operator")
}

// BenchmarkDispatch is the trace-disabled baseline. The tracer must cost
// exactly one nil pointer check per site here; compare against
// BenchmarkDispatchTraced for the price of turning it on.
func BenchmarkDispatch(b *testing.B) {
	benchDispatch(b, compile.Options{}, rt.Config{Mode: rt.Real, Workers: 1})
}

// BenchmarkDispatchTraced is the same loop with structured tracing enabled —
// the guard pair for the observability tax. A regression in the *untraced*
// number above is the one that matters; this one bounds what -trace costs a
// profiling run.
func BenchmarkDispatchTraced(b *testing.B) {
	benchDispatch(b, compile.Options{}, rt.Config{Mode: rt.Real, Workers: 1, Trace: true})
}

// BenchmarkDispatchRetry is the same loop with deterministic retry armed —
// the guard pair for the fault-tolerance tax. incr is pure and takes no
// destructive arguments, so this prices the retry bookkeeping alone (loop
// setup, pristine tracking), not snapshot copies.
func BenchmarkDispatchRetry(b *testing.B) {
	benchDispatch(b, compile.Options{}, rt.Config{Mode: rt.Real, Workers: 1,
		Retry: rt.RetryPolicy{MaxAttempts: 3}})
}

// benchDispatchChain measures dispatch cost on a chain-shaped body: each
// loop iteration runs a 32-operator incr chain, every link a separate
// dispatch that hands its single successor to the next through the worker's
// hand-off slot. The chain is deep enough that the loop's fixed costs
// (cond, activation turnover) amortize away and the per-link dispatch
// price dominates the metric.
func benchDispatchChain(b *testing.B, cfg rt.Config) {
	b.Helper()
	const depth = 32
	body := "i"
	for i := 0; i < depth; i++ {
		body = "incr(" + body + ")"
	}
	src := "main(n)\n  iterate { i = 0, " + body + " } while lt(i, n), result i\n"
	res, err := compile.Compile("chain.dlr", src, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// i advances by depth per loop pass, so the run executes iters incr
	// operators in total (iters/depth loop passes).
	const iters = 320 * depth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := rt.New(res.Program, cfg)
		if _, err := eng.Run(value.Int(iters)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/iters, "ns/operator")
}

// BenchmarkDispatchChain is the per-link price of a 32-operator chain on the
// serial queue, where BenchmarkDispatch's loop body is one operator and the
// loop's own nodes weigh in its metric.
func BenchmarkDispatchChain(b *testing.B) {
	benchDispatchChain(b, rt.Config{Mode: rt.Real, Workers: 1})
}

func BenchmarkCompileWorkload(b *testing.B) {
	src := compile.Generate(200, 7)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile("w.dlr", src, compile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalksTable(b *testing.B) {
	// The §6.2 experiment as a single metric: synthesized-walk speedup at
	// the host's core count.
	workers := runtime.NumCPU()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Walks(150000, []int{1, workers}, 1)
		var t1, tn int64
		for _, r := range rows {
			if r.Strategy == "synthesized" {
				if r.Workers == 1 {
					t1 = r.Nanos
				} else {
					tn = r.Nanos
				}
			}
		}
		speedup = float64(t1) / float64(tn)
	}
	b.ReportMetric(speedup, "walk_speedup")
}

// throughputJacobi is the small repeated-run workload: a jacobi solve tiny
// enough that per-run fixed costs (engine construction, worker spawn, cold
// pools) dominate — exactly what the reusable-engine fast path amortizes.
func throughputJacobi(b *testing.B) *graph.Program {
	b.Helper()
	prog, err := jacobi.CompileProgram(jacobi.Config{N: 6, Tol: 1e6})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

var throughputCfg = rt.Config{Mode: rt.Real, Workers: 8, MaxOps: 100_000_000}

// BenchmarkRunThroughputFresh is the pre-reuse cost model: a new engine —
// new scheduler, new worker goroutines, cold activation pools and block
// free lists — constructed for every run of the same compiled graph.
func BenchmarkRunThroughputFresh(b *testing.B) {
	prog := throughputJacobi(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := rt.New(prog, throughputCfg)
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunThroughputReused is the throughput mode: one engine serves
// the whole stream via RunMany — warmed pools and a reopened scheduler,
// with each run spawning and joining its worker goroutines.
func BenchmarkRunThroughputReused(b *testing.B) {
	prog := throughputJacobi(b)
	eng := rt.New(prog, throughputCfg)
	b.ResetTimer()
	// Chunk the stream so the held results stay bounded regardless of b.N.
	for done := 0; done < b.N; {
		n := b.N - done
		if n > 256 {
			n = 256
		}
		results, err := eng.RunMany(context.Background(), make([][]value.Value, n))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		done += n
	}
}

// stressProgram compiles one seeded stress program at the given scale.
func stressProgram(b *testing.B, funcs int) *graph.Program {
	b.Helper()
	src := stress.Generate(stress.GenConfig{Funcs: funcs, Seed: 1990})
	res, err := compile.Compile("stress.dlr", src, compile.Options{Registry: stress.Operators()})
	if err != nil {
		b.Fatal(err)
	}
	return res.Program
}

// BenchmarkStressGenerate measures generating plus compiling a 10k-node
// class irregular graph — the compiler-side cost of the stress harness.
func BenchmarkStressGenerate(b *testing.B) {
	var nodes int
	for i := 0; i < b.N; i++ {
		prog := stressProgram(b, 600)
		nodes = 0
		for _, t := range prog.Templates {
			nodes += len(t.Nodes)
		}
	}
	b.ReportMetric(float64(nodes), "graph_nodes")
}

// BenchmarkStressRun measures executing one mid-size stress program on the
// real executor — the per-seed runtime cost that dominates
// a stress sweep.
func BenchmarkStressRun(b *testing.B) {
	prog := stressProgram(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := rt.New(prog, rt.Config{Mode: rt.Real, Workers: 4, MaxOps: 50_000_000})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStressOracle measures one seed's full trip through the
// differential matrix (every run spec) — the
// end-to-end unit the nightly job multiplies by its seed count.
func BenchmarkStressOracle(b *testing.B) {
	p := stress.NewProgram(stress.GenConfig{Funcs: 24, Seed: 1990})
	src := p.Source()
	var runs int
	for i := 0; i < b.N; i++ {
		rep := stress.CheckSource("stress.dlr", src, stress.Specs())
		if !rep.OK() {
			b.Fatalf("oracle failure: %s", rep.Failures[0])
		}
		runs = rep.Runs
	}
	b.ReportMetric(float64(runs), "oracle_runs")
}
