// fuse.go implements the operator-fusion pass: a whole-program clustering
// of the linked coordination graph that merges chains (and delay-free small
// trees) of single-consumer nodes into supernodes the runtime dispatches
// once and executes as a straight-line sequence — no ready-queue round
// trips, no counter traffic, and no scheduling between members.
//
// Fusion is only applied where it is provably parallelism-neutral. A node v
// may join the cluster of its sole producer u when every *other* input of v
// arrives either from a node filled at activation creation (param/const) or
// from an ancestor of the cluster head. By induction every external input
// of every member is then an ancestor of the head, so along any such edge
// p -> v there is a path p ~> q -> h to the head: the head's own last
// input is always the last to arrive, and the fused supernode becomes
// runnable at exactly the tick the unfused head would have. Nothing is
// delayed, no new serialization is introduced, and — because only the
// tail's output leaves the cluster — no cross-activation cycle can form.
//
// Alongside clustering, the pass computes each node's static bottom level
// (the weight of the longest chain from the node to any sink of its
// template, flowing through call and cond boundaries), with every operator
// weighing one unit. The executors use bottom levels to order
// simultaneously-ready nodes so the longest remaining chain is pulled first.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// FusePlan is the result of the fusion pass: per-template clusters for
// reporting, plus program-wide totals.
type FusePlan struct {
	// Templates in deterministic (name-sorted, branches inline) order.
	Templates []FusePlanTemplate
	// TotalNodes counts every node the pass visited.
	TotalNodes int
	// FusedNodes counts nodes placed inside some cluster.
	FusedNodes int
	// Clusters counts fused supernodes over the whole program.
	Clusters int
	// DispatchesSaved counts ready-queue dispatches eliminated per single
	// execution of each template: sum over clusters of (members - 1).
	DispatchesSaved int
}

// FusePlanTemplate reports one template's clusters and critical path.
type FusePlanTemplate struct {
	Name string
	// CritLen is the template's static critical-path weight (max bottom
	// level over its nodes).
	CritLen int64
	// Clusters lists the fused supernodes, head first.
	Clusters []FusePlanCluster
}

// FusePlanCluster reports one supernode.
type FusePlanCluster struct {
	Head   int
	Nodes  []int
	Labels []string // member operator/callee names or kinds, in order
	ExtIn  int      // input edges arriving from outside the cluster
}

// fuser carries the pass state across templates.
type fuser struct {
	// critLen memoizes per-template critical-path weights; inProgress
	// breaks recursion cycles (a recursive call contributes one unit,
	// since its true depth is dynamic).
	critLen    map[*graph.Template]int64
	inProgress map[*graph.Template]bool
	plan       *FusePlan
}

// FuseGraph clusters prog's templates into supernodes and stamps every
// node's fusion fields (Fused, FuseHead, FuseCluster, FuseInternalOut,
// BLevel). It returns the report; prog.Fused is set so the executors
// activate supernode dispatch and bottom-level ordering. Safe to call once
// per program, after linking.
func FuseGraph(prog *graph.Program) *FusePlan {
	f := &fuser{
		critLen:    make(map[*graph.Template]int64),
		inProgress: make(map[*graph.Template]bool),
		plan:       &FusePlan{},
	}
	names := make([]string, 0, len(prog.Templates))
	for name := range prog.Templates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.critical(prog.Templates[name])
	}
	f.critical(prog.Main)
	prog.Fused = true
	return f.plan
}

// critical returns t's static critical-path weight, processing the template
// (clustering + bottom levels) on first visit.
func (f *fuser) critical(t *graph.Template) int64 {
	if t == nil {
		return 1
	}
	if v, ok := f.critLen[t]; ok {
		return v
	}
	if f.inProgress[t] {
		return 1
	}
	f.inProgress[t] = true
	v := f.process(t)
	f.inProgress[t] = false
	f.critLen[t] = v
	return v
}

// weight is the static cost of executing node n once: one unit per
// operator, a callee's or branch's critical path for calls and conds.
func (f *fuser) weight(n *graph.Node) int64 {
	switch n.Kind {
	case graph.CallNode:
		return f.critical(n.Callee)
	case graph.CondNode:
		thenL, elseL := f.critical(n.Then), f.critical(n.Else)
		if elseL > thenL {
			thenL = elseL
		}
		return 1 + thenL
	default:
		return 1
	}
}

// fusableSource reports whether u's single out edge may be fused: u must
// execute synchronously (its output is produced by the time execNode
// returns), feed exactly one consumer, not split ownership across several
// consumers, and not be the template's result (result values go to the
// continuation, outside the template).
func fusableSource(u *graph.Node, t *graph.Template) bool {
	switch u.Kind {
	case graph.OpNode, graph.TupleNode, graph.DetupleNode, graph.MakeClosureNode:
	default:
		return false
	}
	return len(u.Out) == 1 && !u.Spread && u.ID != t.Result
}

// fusableTarget reports whether v may join a cluster as a member. Calls,
// closure calls, and conds are allowed — but since they complete
// asynchronously (through a child activation) they can never pass
// fusableSource, so they only ever appear as cluster tails.
func fusableTarget(v *graph.Node) bool {
	switch v.Kind {
	case graph.OpNode, graph.TupleNode, graph.DetupleNode, graph.MakeClosureNode,
		graph.CondNode, graph.CallNode, graph.CallClosureNode:
		return true
	}
	return false
}

// process clusters one template, stamps its nodes, and returns its
// critical-path weight.
func (f *fuser) process(t *graph.Template) int64 {
	nn := len(t.Nodes)
	f.plan.TotalNodes += nn

	// Forward topological order (graphs are acyclic by construction; the
	// compiler validates every template it emits).
	preds := make([][]int, nn) // producers per node, one entry per in edge
	indeg := make([]int, nn)
	for _, nd := range t.Nodes {
		for _, e := range nd.Out {
			preds[e.To] = append(preds[e.To], nd.ID)
			indeg[e.To]++
		}
	}
	topo := make([]int, 0, nn)
	for id := 0; id < nn; id++ {
		if indeg[id] == 0 {
			topo = append(topo, id)
		}
	}
	for i := 0; i < len(topo); i++ {
		for _, e := range t.Nodes[topo[i]].Out {
			if indeg[e.To]--; indeg[e.To] == 0 {
				topo = append(topo, e.To)
			}
		}
	}

	// Bottom levels by reverse topological sweep; the template's critical
	// path is the max over nodes. Computed before clustering so branch and
	// callee templates (visited through weight) are processed first.
	var crit int64
	for i := len(topo) - 1; i >= 0; i-- {
		nd := t.Nodes[topo[i]]
		var best int64
		for _, e := range nd.Out {
			if b := t.Nodes[e.To].BLevel; b > best {
				best = b
			}
		}
		nd.BLevel = f.weight(nd) + best
		if nd.BLevel > crit {
			crit = nd.BLevel
		}
	}

	// Ancestor bitsets, in topological order: anc(v) = union of anc(p) + p
	// over v's producers.
	words := (nn + 63) / 64
	anc := make([]uint64, nn*words)
	for _, id := range topo {
		row := anc[id*words : (id+1)*words]
		for _, p := range preds[id] {
			prow := anc[p*words : (p+1)*words]
			for w := range row {
				row[w] |= prow[w]
			}
			row[p/64] |= 1 << (p % 64)
		}
	}
	isAnc := func(of, p int) bool {
		return anc[of*words+p/64]&(1<<(p%64)) != 0
	}

	// Greedy clustering in topological order: try to extend each node's
	// cluster (or start one) across its single out edge. First producer
	// wins — a node joins at most one cluster — and a member is appended
	// only when the delay-free rule holds: every external input of the new
	// member is a param/const or an ancestor of the head.
	clusterOf := make([]int, nn)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	var members [][]int
	for _, id := range topo {
		u := t.Nodes[id]
		if !fusableSource(u, t) {
			continue
		}
		v := t.Nodes[u.Out[0].To]
		if !fusableTarget(v) || clusterOf[v.ID] >= 0 {
			continue
		}
		head := id
		if ci := clusterOf[id]; ci >= 0 {
			head = members[ci][0]
		}
		ok := true
		for _, p := range preds[v.ID] {
			if p == id || (clusterOf[p] >= 0 && clusterOf[p] == clusterOf[id]) {
				continue
			}
			switch t.Nodes[p].Kind {
			case graph.ParamNode, graph.ConstNode:
				continue
			}
			if !isAnc(head, p) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		ci := clusterOf[id]
		if ci < 0 {
			ci = len(members)
			members = append(members, []int{id})
			clusterOf[id] = ci
		}
		members[ci] = append(members[ci], v.ID)
		clusterOf[v.ID] = ci
	}

	// Stamp nodes and record the report (every cluster has >= 2 members by
	// construction).
	rep := FusePlanTemplate{Name: t.Name, CritLen: crit}
	for _, ms := range members {
		head := ms[0]
		extIn := 0
		for _, id := range ms {
			for _, p := range preds[id] {
				if clusterOf[p] != clusterOf[id] {
					extIn++
				}
			}
		}
		c := &graph.Cluster{Index: len(t.Clusters), Head: head, Nodes: ms, ExtIn: extIn}
		t.Clusters = append(t.Clusters, c)
		labels := make([]string, len(ms))
		for i, id := range ms {
			nd := t.Nodes[id]
			nd.Fused = true
			nd.FuseHead = head
			nd.FuseInternalOut = i < len(ms)-1
			labels[i] = nodeLabel(nd)
		}
		t.Nodes[head].FuseCluster = c
		rep.Clusters = append(rep.Clusters, FusePlanCluster{
			Head: head, Nodes: ms, Labels: labels, ExtIn: extIn})
		f.plan.FusedNodes += len(ms)
		f.plan.Clusters++
		f.plan.DispatchesSaved += len(ms) - 1
	}
	f.plan.Templates = append(f.plan.Templates, rep)
	return crit
}

// Report renders the plan as a human-readable listing, one template per
// block with its clusters and critical-path weight.
func (p *FusePlan) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fusion plan (unit weights): %d clusters, %d/%d nodes fused, %d dispatches saved per pass\n",
		p.Clusters, p.FusedNodes, p.TotalNodes, p.DispatchesSaved)
	for _, t := range p.Templates {
		if len(t.Clusters) == 0 {
			continue
		}
		fmt.Fprintf(&b, "template %s (critical path %d):\n", t.Name, t.CritLen)
		for i, c := range t.Clusters {
			fmt.Fprintf(&b, "  supernode %d: %s (head n%d, %d external inputs)\n",
				i, strings.Join(c.Labels, " -> "), c.Head, c.ExtIn)
		}
	}
	return b.String()
}

// nodeLabel names a node for reports: its operator or callee name, or its
// kind.
func nodeLabel(n *graph.Node) string {
	if n.Name != "" {
		return n.Name
	}
	return n.Kind.String()
}
