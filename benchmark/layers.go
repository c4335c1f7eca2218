package main

import (
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/runtime"
)

// passMetric names the per-layer metric of each compiler pass in
// compile.Result.Passes.
var passMetric = map[string]string{
	"Lexing":           "compile.lex_ms",
	"Parsing":          "compile.parse_ms",
	"Macro Expansion":  "compile.macro_ms",
	"Env Analysis":     "compile.sema_ms",
	"Optimization":     "compile.opt_ms",
	"Graph Conversion": "compile.graph_ms",
	"Memory Plan":      "compile.memplan_ms",
	"Fusion":           "compile.fuse_ms",
	"Affinity Plan":    "compile.affinity_ms",
}

// probeCompile compiles the target's sources n times round-robin and reports
// the compile layer: median time per pass, throughput, allocations, and the
// two exact counts (nodes out, optimiser rewrites; means over the sources).
// The three plan passes always run here, whether or not the workload's own
// options ask for them, so that each pass has a cost on each workload's
// source; they annotate the graph and leave the other passes' work as it is.
func probeCompile(out map[string]float64, t target, n int) error {
	n = max(n, len(t.srcs))
	t.opts.MemPlan, t.opts.Fuse, t.opts.Affinity = true, true, true
	perPass := make(map[string][]float64)
	var srcBytes, nodes, rewrites int64
	var compileTime time.Duration
	u0 := readUsage()
	for i := 0; i < n; i++ {
		src := t.srcs[i%len(t.srcs)]
		t0 := time.Now()
		res, err := compile.Compile(t.file, src, t.opts)
		compileTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("compile probe: %w", err)
		}
		for _, p := range res.Passes {
			perPass[p.Name] = append(perPass[p.Name], float64(p.Nanos)/1e6)
		}
		srcBytes += int64(len(src))
		nodes += int64(res.Program.NodeCount())
		o := res.OptStats
		rewrites += o.Folded + o.Propagated + o.CSE + o.DeadBinds + o.Inlined
	}
	u1 := readUsage()
	for pass, name := range passMetric {
		out[name] = median(perPass[pass])
	}
	out["compile.src_kb_per_s"] = ratio(float64(srcBytes)/1024, compileTime.Seconds())
	out["compile.allocs_per_compile"] = float64(u1.mallocs-u0.mallocs) / float64(n)
	out["compile.nodes_out"] = float64(nodes) / float64(n)
	out["compile.opt_rewrites"] = float64(rewrites) / float64(n)
	return nil
}

// statSum adds up runtime.Stats over a probe's runs.
type statSum struct {
	runs, leaks int
	s           runtime.Stats
}

func (a *statSum) add(st *runtime.Stats) {
	a.runs++
	if st.Blocks.Allocated != st.Blocks.Freed {
		a.leaks++
	}
	a.s.OpsExecuted += st.OpsExecuted
	a.s.OperatorsRun += st.OperatorsRun
	a.s.ActivationsAllocated += st.ActivationsAllocated
	a.s.ActivationsReused += st.ActivationsReused
	a.s.Steals += st.Steals
	a.s.StealContention += st.StealContention
	a.s.Parks += st.Parks
	a.s.InjectedTasks += st.InjectedTasks
	a.s.AffinityHits += st.AffinityHits
	a.s.AffinityMisses += st.AffinityMisses
	a.s.FusedNodes += st.FusedNodes
	a.s.ElidedRetains += st.ElidedRetains
	a.s.ElidedReleases += st.ElidedReleases
	a.s.PooledAllocs += st.PooledAllocs
	a.s.Blocks.Add(st.Blocks)
}

// warmRuns runs eng n times (after a few unmeasured runs) and returns each
// run's wall and reset times in ms and the process CPU spent inside Run.
// after, when set, sees the engine after each measured run, before Reset.
func warmRuns(eng *runtime.Engine, t target, n int, after func(*runtime.Engine)) (runMS, resetMS []float64, cpu time.Duration, err error) {
	const unmeasured = 5
	for i := 0; i < unmeasured+n; i++ {
		c0 := cpuNow()
		t0 := time.Now()
		v, rerr := eng.Run()
		wall := time.Since(t0)
		c1 := cpuNow()
		if rerr == nil {
			rerr = finishRun(eng, v, t.check)
		}
		if rerr != nil {
			return nil, nil, 0, fmt.Errorf("runtime probe: %w", rerr)
		}
		if i >= unmeasured {
			runMS = append(runMS, ms(wall))
			cpu += c1 - c0
			if after != nil {
				after(eng)
			}
		}
		t0 = time.Now()
		if rerr := eng.Reset(); rerr != nil {
			return nil, nil, 0, fmt.Errorf("runtime probe: %w", rerr)
		}
		if i >= unmeasured {
			resetMS = append(resetMS, ms(time.Since(t0)))
		}
	}
	return runMS, resetMS, cpu, nil
}

// probeRuntime measures the runtime, operator and value layers on the
// target's program: a cold engine, the warm engine, a 1-worker baseline,
// a Config.Timing run for the coordination share, and Config.Trace on and off.
func probeRuntime(out map[string]float64, t target, n int) error {
	// Cold: a new engine's construction and its first run.
	var newMS, coldMS []float64
	for i := 0; i < max(n/8, 3); i++ {
		t0 := time.Now()
		eng := runtime.New(t.prog, t.cfg)
		t1 := time.Now()
		v, err := eng.Run()
		t2 := time.Now()
		if err == nil {
			err = finishRun(eng, v, t.check)
		}
		if err != nil {
			return fmt.Errorf("cold runtime probe: %w", err)
		}
		newMS = append(newMS, ms(t1.Sub(t0)))
		coldMS = append(coldMS, ms(t2.Sub(t1)))
	}
	out["runtime.engine_new_ms"] = median(newMS)
	out["runtime.cold_run_ms"] = median(coldMS)

	// Warm: the reused engine, with every Stats counter summed per run.
	var sum statSum
	runMS, resetMS, cpu, err := warmRuns(runtime.New(t.prog, t.cfg), t, n,
		func(e *runtime.Engine) { sum.add(e.Stats()) })
	if err != nil {
		return err
	}
	runs, s := float64(sum.runs), &sum.s
	warm := median(runMS)
	out["runtime.warm_run_ms"] = warm
	out["runtime.reset_us"] = median(resetMS) * 1e3
	out["runtime.ns_per_node"] = ratio(float64(cpu.Nanoseconds()), float64(s.OpsExecuted))
	out["runtime.nodes_per_run"] = float64(s.OpsExecuted) / runs
	out["runtime.operators_per_run"] = float64(s.OperatorsRun) / runs
	out["runtime.activations_alloc_per_run"] = float64(s.ActivationsAllocated) / runs
	out["runtime.activations_reused_share"] = ratio(float64(s.ActivationsReused), float64(s.ActivationsReused+s.ActivationsAllocated))
	out["runtime.fused_nodes_share"] = ratio(float64(s.FusedNodes), float64(s.OpsExecuted))
	out["runtime.steals_per_run"] = float64(s.Steals) / runs
	out["runtime.parks_per_run"] = float64(s.Parks) / runs
	out["runtime.steal_contention_per_run"] = float64(s.StealContention) / runs
	out["runtime.injected_per_run"] = float64(s.InjectedTasks) / runs
	out["runtime.affinity_hit_share"] = ratio(float64(s.AffinityHits), float64(s.AffinityHits+s.AffinityMisses))
	out["value.blocks_alloc_per_run"] = float64(s.Blocks.Allocated) / runs
	out["value.copies_per_run"] = float64(s.Blocks.Copies) / runs
	out["value.retains_per_run"] = float64(s.Blocks.Retains) / runs
	out["value.releases_per_run"] = float64(s.Blocks.Releases) / runs
	out["value.pooled_alloc_share"] = ratio(float64(s.PooledAllocs), float64(s.Blocks.Allocated))
	out["value.elided_refops_per_run"] = float64(s.ElidedRetains+s.ElidedReleases) / runs
	out["value.leak_runs"] = float64(sum.leaks)

	// Serial: the same program on one worker, the base of the speed-up.
	serial := t.cfg
	serial.Workers = 1
	serialMS, _, _, err := warmRuns(runtime.New(t.prog, serial), t, max(n/2, 3), nil)
	if err != nil {
		return err
	}
	out["runtime.serial_run_ms"] = median(serialMS)
	out["runtime.speedup_2w"] = ratio(median(serialMS), warm)

	// Coordination share: what is left of the run's CPU after the operator
	// bodies in the Config.Timing log. The log's clock reads sit inside the
	// body time, so on sub-microsecond operators the share is a floor.
	timed := t.cfg
	timed.Timing = true
	var bodyNS int64
	timedRuns := max(n/5, 3)
	_, _, timedCPU, err := warmRuns(runtime.New(t.prog, timed), t, timedRuns, func(e *runtime.Engine) {
		for _, entry := range e.Timing().Entries() {
			bodyNS += entry.Ticks
		}
	})
	if err != nil {
		return err
	}
	out["runtime.coord_share"] = 1 - ratio(float64(bodyNS), float64(timedCPU.Nanoseconds()))
	out["operator.body_ms_per_run"] = float64(bodyNS) / 1e6 / float64(timedRuns)

	// Tracing cost: the warm run with Config.Trace on over the plain one.
	traced := t.cfg
	traced.Trace = true
	tracedMS, _, _, err := warmRuns(runtime.New(t.prog, traced), t, max(n/2, 3), nil)
	if err != nil {
		return err
	}
	out["runtime.trace_on_ratio"] = ratio(median(tracedMS), warm)
	return nil
}
