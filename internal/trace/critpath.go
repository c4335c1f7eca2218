package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Critical-path analysis — the answer to "what bounds the makespan". The
// §5.2 node-timing listing shows *that* post_up is slow; this analysis
// replays the recorded node times over the data-dependency edges captured
// in the trace and reports the longest weighted chain, so the bottleneck
// falls out mechanically instead of by eyeballing the listing: an operator
// whose instances sit on the critical path with zero slack is what a
// coordination-level rebalance (like the paper's §5.2 post_up split) must
// attack.

// CritStep is one node execution on the critical path.
type CritStep struct {
	Name     string
	Template string
	Worker   int32
	Start    int64
	Dur      int64
}

// CritOp aggregates one operator's relation to the critical path.
type CritOp struct {
	Name string
	// Calls and Total cover every instance; OnPath counts only instances on
	// the critical path.
	Calls       int
	OnPathCalls int
	Total       int64
	OnPath      int64
	// Slack is the smallest scheduling slack over the operator's instances:
	// how far its slowest chain could slip without growing the makespan.
	// Zero means at least one instance is on the critical path.
	Slack int64
}

// CritPath is the result of Trace.CriticalPath.
type CritPath struct {
	// Unit names the time unit ("ticks" for Simulated, "ns" for Real).
	Unit string
	// PathTicks is the critical path's length; TotalTicks the summed
	// duration of every node execution. Total/Path is the run's average
	// available parallelism.
	PathTicks  int64
	TotalTicks int64
	// Steps is the critical path itself, in execution order.
	Steps []CritStep
	// Operators is every operator sorted by descending on-path time.
	Operators []CritOp
	// Dominant is the bottleneck operator when Balanced is false, otherwise
	// the operator with the largest on-path share; DominantShare is its
	// fraction of PathTicks. Balanced is false when a single operator both
	// dominates the path and runs serialized (see the thresholds below).
	Dominant      string
	DominantShare float64
	Balanced      bool
}

// An operator is declared the bottleneck when it holds at least
// dominanceThreshold of the critical path AND at least serialThreshold of
// its own total work sits on the path. The second test separates a
// structural bottleneck (the §5.2 unbalanced retina's post_up: 100% of its
// work serialized, one instance after another on the chain) from an
// operator that is merely the biggest job but runs wide in parallel (the
// balanced retina's convol_bite: half the path but only a quarter of its
// instances on it — adding processors helps it, splitting it does not).
const (
	dominanceThreshold = 0.40
	serialThreshold    = 0.75
)

// cpInst is one node execution during analysis.
type cpInst struct {
	name   string
	tmpl   string
	worker int32
	start  int64
	dur    int64

	preds    []*cpInst
	succs    []*cpInst
	indegree int

	ef       int64 // earliest finish: dur + max over preds
	lf       int64 // latest finish without growing the makespan
	bestPred *cpInst
}

// CriticalPath analyzes the recorded trace. Returns nil when the trace
// holds no completed node executions.
func (t *Trace) CriticalPath() *CritPath {
	// Reconstruct instances and dependency edges. A Deliver is recorded
	// inside its producing node's slice; one recorded outside a slice came
	// from seeding, and its consumer is a root.
	insts := make(map[instKey]*cpInst)
	var order []*cpInst // discovery order, for deterministic iteration
	type edge struct{ from, to instKey }
	var edges []edge
	t.walk(func(start, end *Event) {
		in := &cpInst{name: start.Name, tmpl: start.Tmpl, worker: start.Worker,
			start: start.Ts, dur: max(end.Ts-start.Ts, 0)}
		insts[instKey{start.Act, start.Node}] = in
		order = append(order, in)
	}, func(ev, open *Event) {
		if ev.Type == Deliver && open != nil {
			edges = append(edges, edge{instKey{open.Act, open.Node}, instKey{ev.Act, ev.Node}})
		}
	})
	if len(order) == 0 {
		return nil
	}
	for _, e := range edges {
		from, to := insts[e.from], insts[e.to]
		if from == nil || to == nil || to == from {
			continue // consumer never executed (run ended first)
		}
		from.succs = append(from.succs, to)
		to.preds = append(to.preds, from)
		to.indegree++
	}

	// Forward pass in topological order (deliveries happen before the
	// consumer starts, so the edge set is acyclic).
	queue := make([]*cpInst, 0, len(order))
	for _, in := range order {
		if in.indegree == 0 {
			queue = append(queue, in)
		}
	}
	var total int64
	topo := make([]*cpInst, 0, len(order))
	var end *cpInst
	for len(queue) > 0 {
		in := queue[0]
		queue = queue[1:]
		topo = append(topo, in)
		in.ef += in.dur
		total += in.dur
		if end == nil || in.ef > end.ef {
			end = in
		}
		for _, s := range in.succs {
			if in.ef > s.ef {
				s.ef = in.ef
				s.bestPred = in
			}
			if s.indegree--; s.indegree == 0 {
				queue = append(queue, s)
			}
		}
	}
	// A cycle would mean corrupted reconstruction; degrade to the processed
	// subset rather than looping forever.
	if end == nil {
		return nil
	}

	// Backward pass for slack, in reverse topological order: latest finish =
	// min over successors of their latest start; sinks finish at the
	// makespan.
	pathLen := end.ef
	for i := len(topo) - 1; i >= 0; i-- {
		in := topo[i]
		in.lf = pathLen
		for _, s := range in.succs {
			if ls := s.lf - s.dur; ls < in.lf {
				in.lf = ls
			}
		}
	}

	// Walk the chain back from the endpoint.
	var steps []CritStep
	onPath := make(map[*cpInst]bool)
	for in := end; in != nil; in = in.bestPred {
		onPath[in] = true
		steps = append(steps, CritStep{Name: in.name, Template: in.tmpl,
			Worker: in.worker, Start: in.start, Dur: in.dur})
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}

	// Per-operator aggregation.
	agg := make(map[string]*CritOp)
	var names []string
	for _, in := range order {
		op := agg[in.name]
		if op == nil {
			op = &CritOp{Name: in.name, Slack: in.lf - in.ef}
			agg[in.name] = op
			names = append(names, in.name)
		}
		op.Calls++
		op.Total += in.dur
		if slack := in.lf - in.ef; slack < op.Slack {
			op.Slack = slack
		}
		if onPath[in] {
			op.OnPathCalls++
			op.OnPath += in.dur
		}
	}
	ops := make([]CritOp, 0, len(names))
	for _, n := range names {
		ops = append(ops, *agg[n])
	}
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].OnPath != ops[j].OnPath {
			return ops[i].OnPath > ops[j].OnPath
		}
		if ops[i].Total != ops[j].Total {
			return ops[i].Total > ops[j].Total
		}
		return ops[i].Name < ops[j].Name
	})

	cp := &CritPath{
		Unit:       t.Unit,
		PathTicks:  pathLen,
		TotalTicks: total,
		Steps:      steps,
		Operators:  ops,
	}
	cp.Balanced = true
	if len(ops) > 0 && pathLen > 0 {
		cp.Dominant = ops[0].Name
		cp.DominantShare = float64(ops[0].OnPath) / float64(pathLen)
		// Scan the on-path ranking (descending) for a serialized dominator.
		for _, op := range ops {
			share := float64(op.OnPath) / float64(pathLen)
			if share < dominanceThreshold {
				break
			}
			if op.Total > 0 && float64(op.OnPath)/float64(op.Total) >= serialThreshold {
				cp.Balanced = false
				cp.Dominant = op.Name
				cp.DominantShare = share
				break
			}
		}
	}
	return cp
}

// Serialization is the fraction of the operator's total work that sits on
// the critical path: 1.0 means every instance is chained end to end; 1/k
// means it effectively runs k-wide.
func (op *CritOp) Serialization() float64 {
	if op.Total == 0 {
		return 0
	}
	return float64(op.OnPath) / float64(op.Total)
}

// Parallelism returns the run's average available parallelism
// (total work / critical path) — the speedup ceiling no processor count can
// beat (Brent's bound).
func (c *CritPath) Parallelism() float64 {
	if c.PathTicks == 0 {
		return 0
	}
	return float64(c.TotalTicks) / float64(c.PathTicks)
}

// Verdict is the one-line imbalance diagnosis.
func (c *CritPath) Verdict() string {
	if c.Balanced {
		width := 0.0
		for _, op := range c.Operators {
			if op.Name == c.Dominant && op.OnPath > 0 {
				width = float64(op.Total) / float64(op.OnPath)
			}
		}
		return fmt.Sprintf("balanced — no serialized operator dominates the critical path (top on-path: %s at %.0f%%, running %.1fx wide)",
			c.Dominant, c.DominantShare*100, width)
	}
	return fmt.Sprintf("imbalanced — %s is %.0f%% of the critical path and serialized; splitting it is what buys speedup",
		c.Dominant, c.DominantShare*100)
}

// Report renders the analysis: path length, parallelism ceiling, the
// top operators by on-path time, and the verdict.
func (c *CritPath) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d %s over %d steps (total work %d %s, avg parallelism %.2fx)\n",
		c.PathTicks, c.Unit, len(c.Steps), c.TotalTicks, c.Unit, c.Parallelism())
	fmt.Fprintf(&b, "%-20s %10s %8s %8s %12s %12s %12s\n",
		"operator", "on-path", "serial", "calls", "path "+c.Unit, "total "+c.Unit, "slack "+c.Unit)
	shown := 0
	for _, op := range c.Operators {
		if op.OnPath == 0 && shown >= 3 {
			continue // off-path plumbing: keep the table short
		}
		fmt.Fprintf(&b, "%-20s %9.1f%% %7.0f%% %8d %12d %12d %12d\n",
			op.Name, 100*float64(op.OnPath)/float64(c.PathTicks), 100*op.Serialization(),
			op.Calls, op.OnPath, op.Total, op.Slack)
		shown++
		if shown >= 10 {
			break
		}
	}
	fmt.Fprintf(&b, "verdict: %s\n", c.Verdict())
	return b.String()
}
