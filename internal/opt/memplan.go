// memplan.go implements the memory-plan pass: a whole-program ownership
// analysis over the linked coordination graph that lets the runtime elide
// reference-count traffic and hand blocks to destructive operators in place
// without the copy-on-write check. (Recycling freed payloads is the
// runtime's own, planned or not.)
//
// The analysis computes, per node, whether the node's output is
// *exclusively owned* — every block reachable from it has reference count
// exactly 1 when it leaves the node. Ownership then flows along an edge
// when the producer is owned, the edge is the producer's only consumer, and
// the producer is not the template's result (a result value is shared with
// the continuation). The facts are interprocedural: a template's parameters
// are owned only if every call site passes owned arguments, and a call's
// output is owned only if the callee's result is.
//
// The fixpoint is optimistic (everything starts owned) and monotonically
// falsifying, so it terminates in at most O(templates × params) rounds.
// Soundness does not rest on the static analysis alone: the runtime
// verifies the output-ownership claim after every planned operator
// execution and copies any result block that ends up shared (a duplicating
// operator, or a wrong Operator.Fresh annotation), so a bad fact costs a
// visible copy, never determinism.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// MemPlan is the result of the memory-plan pass: per-template node facts
// for reporting, plus program-wide totals.
type MemPlan struct {
	// Templates in deterministic (name-sorted, branches inline) order.
	Templates []MemPlanTemplate
	// TotalNodes counts every node the pass visited.
	TotalNodes int
	// OwnedOutputs counts nodes whose output is proven exclusively owned.
	OwnedOutputs int
	// OwnedPorts counts input ports proven to receive exclusively-owned
	// values.
	OwnedPorts int
	// InPlacePorts counts destructive operator ports among OwnedPorts: each
	// is statically guaranteed to take the in-place path with zero
	// copy-on-write.
	InPlacePorts int
	// TransferEnvSites counts closure-call nodes whose environment transfer
	// elides a retain/release pair per environment block.
	TransferEnvSites int
}

// MemPlanTemplate reports one template's planned nodes.
type MemPlanTemplate struct {
	Name  string
	Nodes []MemPlanNode
}

// MemPlanNode reports the plan facts stamped on one node.
type MemPlanNode struct {
	ID          int
	Label       string // operator/callee name or node kind
	Owned       bool   // output exclusively owned
	OwnedArgs   []int  // input ports receiving owned values
	InPlaceArgs []int  // owned ports that are also destructive
	TransferEnv bool
}

// tmplFacts is the per-template analysis state.
type tmplFacts struct {
	t *graph.Template
	// paramOwned[i]: every call site passes an exclusively-owned value for
	// argument slot i. Starts true, falsified by call sites.
	paramOwned []bool
	// prod[n]: node n's output is exclusively owned.
	prod []bool
	// portOwned[n][p]: the value arriving on node n's port p is owned.
	portOwned [][]bool
	// retOwned: the template's result is exclusively owned on return.
	retOwned bool
}

// PlanMemory analyzes prog and stamps every node's Mem* fields, which the
// executors read straight off the nodes. It returns the report. Safe to call
// once per program, after linking.
func PlanMemory(prog *graph.Program) *MemPlan {
	facts := make(map[*graph.Template]*tmplFacts)
	var order []*tmplFacts
	var collect func(t *graph.Template)
	collect = func(t *graph.Template) {
		if t == nil || facts[t] != nil {
			return
		}
		f := &tmplFacts{
			t:          t,
			paramOwned: make([]bool, t.NumArgs()),
			prod:       make([]bool, len(t.Nodes)),
			portOwned:  make([][]bool, len(t.Nodes)),
		}
		for i := range f.paramOwned {
			f.paramOwned[i] = true
		}
		for i, n := range t.Nodes {
			f.portOwned[i] = make([]bool, n.NIn)
		}
		facts[t] = f
		order = append(order, f)
		for _, n := range t.Nodes {
			collect(n.Callee)
			collect(n.Then)
			collect(n.Else)
		}
	}
	names := make([]string, 0, len(prog.Templates))
	for name := range prog.Templates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		collect(prog.Templates[name])
	}
	collect(prog.Main)

	// Pessimistic entry points: main's arguments come from the host caller
	// (who may hold references), and closure-invoked templates can be
	// reached through closure values whose provenance the analysis does not
	// track.
	if mf := facts[prog.Main]; mf != nil {
		for i := range mf.paramOwned {
			mf.paramOwned[i] = false
		}
	}
	for _, f := range order {
		for _, n := range f.t.Nodes {
			if n.Kind == graph.MakeClosureNode && n.Callee != nil {
				cf := facts[n.Callee]
				for i := range cf.paramOwned {
					cf.paramOwned[i] = false
				}
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, f := range order {
			if f.compute(facts) {
				changed = true
			}
		}
	}

	// Stamp the graph and build the report.
	plan := &MemPlan{}
	for _, f := range order {
		mt := MemPlanTemplate{Name: f.t.Name}
		for _, n := range f.t.Nodes {
			plan.TotalNodes++
			n.MemOwned = f.prod[n.ID]
			ports := f.portOwned[n.ID]
			anyOwned := false
			for _, o := range ports {
				if o {
					anyOwned = true
					break
				}
			}
			if anyOwned {
				n.MemOwnedArgs = append([]bool(nil), ports...)
			}
			if n.Kind == graph.CallClosureNode {
				n.MemTransferEnv = true
				plan.TransferEnvSites++
			}
			mn := MemPlanNode{ID: n.ID, Label: nodeLabel(n), Owned: n.MemOwned, TransferEnv: n.MemTransferEnv}
			if n.MemOwned {
				plan.OwnedOutputs++
			}
			for p, o := range ports {
				if !o {
					continue
				}
				plan.OwnedPorts++
				mn.OwnedArgs = append(mn.OwnedArgs, p)
				if n.Kind == graph.OpNode && n.Op != nil && n.Op.MayModify(p) {
					plan.InPlacePorts++
					mn.InPlaceArgs = append(mn.InPlaceArgs, p)
				}
			}
			if mn.Owned || mn.OwnedArgs != nil || mn.TransferEnv {
				mt.Nodes = append(mt.Nodes, mn)
			}
		}
		plan.Templates = append(plan.Templates, mt)
	}
	return plan
}

// compute re-derives this template's facts from the current interprocedural
// state, meeting argument ownership into callees. It reports whether any
// cross-template fact (a callee's paramOwned, or this template's retOwned)
// changed. Nodes are processed in ID order; the builder adds producers
// before consumers, so one forward pass resolves every intra-template edge
// (a port whose producer has not been processed simply stays unowned, which
// is conservative).
func (f *tmplFacts) compute(facts map[*graph.Template]*tmplFacts) bool {
	changed := false
	clear := func(owned *bool) {
		if *owned {
			*owned = false
			changed = true
		}
	}
	t := f.t
	for i := range f.portOwned {
		for p := range f.portOwned[i] {
			f.portOwned[i][p] = false
		}
	}
	for _, n := range t.Nodes {
		allPorts := true
		for _, o := range f.portOwned[n.ID] {
			if !o {
				allPorts = false
				break
			}
		}
		var prod bool
		switch n.Kind {
		case graph.ConstNode:
			// Literals carry no blocks; vacuously owned.
			prod = true
		case graph.ParamNode:
			prod = f.paramOwned[n.Index]
		case graph.OpNode:
			prod = allPorts || (n.Op != nil && n.Op.Fresh)
		case graph.TupleNode, graph.MakeClosureNode:
			prod = allPorts
		case graph.DetupleNode:
			// Extracting from an owned package: this node's element is
			// exclusive (spread split or full ownership of the tuple).
			prod = len(f.portOwned[n.ID]) > 0 && f.portOwned[n.ID][0]
		case graph.CallNode:
			cf := facts[n.Callee]
			prod = cf != nil && cf.retOwned
			if cf != nil {
				for p := 0; p < n.NIn && p < len(cf.paramOwned); p++ {
					if !f.portOwned[n.ID][p] {
						clear(&cf.paramOwned[p])
					}
				}
			}
		case graph.CallClosureNode:
			// The callee is dynamic; its result's provenance is unknown.
			prod = false
		case graph.CondNode:
			tf, ef := facts[n.Then], facts[n.Else]
			prod = tf != nil && ef != nil && tf.retOwned && ef.retOwned
			// Ports 1..NIn-1 become the branch templates' parameters.
			for p := 1; p < n.NIn; p++ {
				if f.portOwned[n.ID][p] {
					continue
				}
				if tf != nil && p-1 < len(tf.paramOwned) {
					clear(&tf.paramOwned[p-1])
				}
				if ef != nil && p-1 < len(ef.paramOwned) {
					clear(&ef.paramOwned[p-1])
				}
			}
		}
		f.prod[n.ID] = prod
		// Propagate along edges. A spread producer splits element ownership
		// among its detuple consumers, so each consumer port is owned iff
		// the producer is; otherwise ownership needs a single consumer, and
		// a result node always shares with the continuation.
		if n.Spread {
			for _, e := range n.Out {
				f.portOwned[e.To][e.Port] = prod
			}
		} else if len(n.Out) == 1 && n.ID != t.Result {
			e := n.Out[0]
			f.portOwned[e.To][e.Port] = prod
		}
	}
	ret := f.prod[t.Result] && len(t.Nodes[t.Result].Out) == 0
	if ret != f.retOwned {
		f.retOwned = ret
		changed = true
	}
	return changed
}

// nodeLabel names a node for the plan report.
func nodeLabel(n *graph.Node) string {
	if n.Name != "" {
		return n.Name
	}
	return n.Kind.String()
}

// Report renders the plan for delc -memplan: program totals, then each
// template's planned nodes.
func (p *MemPlan) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memory plan: %d/%d outputs owned, %d owned ports, %d in-place destructive ports, %d env-transfer sites\n",
		p.OwnedOutputs, p.TotalNodes, p.OwnedPorts, p.InPlacePorts, p.TransferEnvSites)
	for _, t := range p.Templates {
		if len(t.Nodes) == 0 {
			continue
		}
		fmt.Fprintf(&b, "template %s:\n", t.Name)
		for _, n := range t.Nodes {
			fmt.Fprintf(&b, "  #%-3d %-16s", n.ID, n.Label)
			var marks []string
			if n.Owned {
				marks = append(marks, "output owned")
			}
			if len(n.OwnedArgs) > 0 {
				marks = append(marks, fmt.Sprintf("owned args %v", n.OwnedArgs))
			}
			if len(n.InPlaceArgs) > 0 {
				marks = append(marks, fmt.Sprintf("in-place %v", n.InPlaceArgs))
			}
			if n.TransferEnv {
				marks = append(marks, "env transfer")
			}
			b.WriteString(strings.Join(marks, ", "))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
