package server

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// MetricsText renders the Prometheus text exposition served at /metrics.
// Everything here is assembled from the runtime's existing Stats counters
// aggregated per program, plus the server's own admission gauges — no
// metrics library, just the text format.
func (s *Server) MetricsText() string {
	var b strings.Builder

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("delserver_up", "1 while the daemon serves", 1)
	gauge("delserver_runs_inflight", "runs currently executing", s.inflight.Load())
	gauge("delserver_queue_depth", "runs queued for an admission slot", s.queued.Load())
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	gauge("delserver_draining", "1 once graceful shutdown began", draining)
	gauge("delserver_uptime_seconds", "seconds since the server started",
		int64(time.Since(s.startTime).Seconds()))

	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	counter("delserver_runs_shed_total", "runs rejected 429 by the bounded admission queue")
	fmt.Fprintf(&b, "delserver_runs_shed_total %d\n", s.shed.Load())
	counter("delserver_handler_panics_total", "panics converted to 500s instead of crashes")
	fmt.Fprintf(&b, "delserver_handler_panics_total %d\n", s.panics.Load())

	s.mu.RLock()
	names := make([]string, 0, len(s.programs))
	for n := range s.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	progs := make(map[string]*program, len(names))
	for _, n := range names {
		progs[n] = s.programs[n]
	}
	s.mu.RUnlock()

	perProg := func(name, help string, get func(p *program) int64) {
		counter(name, help)
		for _, n := range names {
			fmt.Fprintf(&b, "%s{program=%q} %d\n", name, n, get(progs[n]))
		}
	}

	perProg("delserver_runs_total", "successful runs", func(p *program) int64 { return p.runs.Load() })
	// Failure counters are labeled by runtime failure kind.
	counter("delserver_run_failures_total", "failed runs by runtime failure kind")
	kinds := []string{"error", "panic", "timeout", "canceled", "deadlock", "budget"}
	for _, n := range names {
		for k, kind := range kinds {
			if v := progs[n].failures[k].Load(); v != 0 {
				fmt.Fprintf(&b, "delserver_run_failures_total{program=%q,kind=%q} %d\n", n, kind, v)
			}
		}
	}
	perProg("delserver_block_leak_runs_total",
		"runs that violated Allocated==Freed (engine quarantined)",
		func(p *program) int64 { return p.leakRuns.Load() })
	perProg("delserver_engine_pool_created_total", "engines constructed",
		func(p *program) int64 { c, _, _ := p.pool.Counters(); return c })
	perProg("delserver_engine_pool_reused_total", "engine checkouts served from the warm pool",
		func(p *program) int64 { _, r, _ := p.pool.Counters(); return r })
	perProg("delserver_ops_executed_total", "scheduled node executions",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.ops) })
	perProg("delserver_operators_run_total", "sequential operator executions",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.operators) })
	perProg("delserver_retries_total", "re-executed operator attempts",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.retries) })
	perProg("delserver_op_timeouts_total", "operator attempts cut off by their bound",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.opTimeouts) })
	perProg("delserver_faults_injected_total", "seeded chaos faults fired",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.faultsInjected) })
	perProg("delserver_steals_total", "work-stealing scheduler steals",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.steals) })
	perProg("delserver_elided_refcounts_total", "refcount ops skipped by the memory plan",
		func(p *program) int64 {
			return atomic.LoadInt64(&p.agg.elidedRetains) + atomic.LoadInt64(&p.agg.elidedReleases)
		})
	perProg("delserver_pooled_allocs_total", "block allocations served from free lists",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.pooledAllocs) })
	perProg("delserver_fused_nodes_total", "node executions inside fused supernodes",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.fusedNodes) })
	perProg("delserver_blocks_allocated_total", "blocks allocated",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.blocksAllocated) })
	perProg("delserver_blocks_freed_total", "blocks freed",
		func(p *program) int64 { return atomic.LoadInt64(&p.agg.blocksFreed) })

	return b.String()
}

// recordFailure bumps the per-kind failure counter for a program; kinds
// outside the known range land on "error".
func (p *program) recordFailure(kind int) {
	if kind < 0 || kind >= len(p.failures) {
		kind = 0
	}
	p.failures[kind].Add(1)
}
