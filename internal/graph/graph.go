// Package graph defines coordination graphs, the executable form of a
// Delirium program (§7). The compiler converts each function into a
// subgraph called a template; edges represent data paths and nodes
// represent sequential operators. When all the incoming arcs of a node
// carry data the node is scheduled for execution.
//
// Coordination graphs are a flexible form of dataflow graph designed for
// efficient software implementation: subgraphs can be passed between
// operators as closure values, and a call-closure operator expands a
// subgraph dynamically at run time, which makes recursion, tail recursion,
// and closures direct to express.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/operator"
	"repro/internal/source"
	"repro/internal/value"
)

// NodeKind discriminates coordination-graph nodes.
type NodeKind int

// Node kinds.
const (
	// ParamNode produces the activation's i-th argument (filled at
	// activation creation; never scheduled).
	ParamNode NodeKind = iota
	// ConstNode produces a compile-time constant (filled at activation
	// creation; never scheduled).
	ConstNode
	// OpNode applies a registered sequential operator to its inputs.
	OpNode
	// CallNode expands a statically-known callee template with the node's
	// inputs as arguments (user arguments followed by forwarded captures).
	CallNode
	// CallClosureNode is the special call-closure operator: input 0 is a
	// closure value whose subgraph is expanded with inputs 1..n as
	// arguments and the closure environment appended.
	CallClosureNode
	// CondNode evaluates input 0 as the test and expands the Then or Else
	// branch subtemplate with inputs 1..n as arguments.
	CondNode
	// MakeClosureNode builds a closure value from the callee template and
	// the node's inputs (the captured values).
	MakeClosureNode
	// TupleNode packages its inputs into a multiple-value package.
	TupleNode
	// DetupleNode extracts element Index (0-based) of its tuple input.
	DetupleNode
)

// String names the node kind for DOT output and debugging.
func (k NodeKind) String() string {
	switch k {
	case ParamNode:
		return "param"
	case ConstNode:
		return "const"
	case OpNode:
		return "op"
	case CallNode:
		return "call"
	case CallClosureNode:
		return "call-closure"
	case CondNode:
		return "cond"
	case MakeClosureNode:
		return "make-closure"
	case TupleNode:
		return "tuple"
	case DetupleNode:
		return "detuple"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Edge connects a producer's output to one input port of a consumer node.
type Edge struct {
	To   int // consumer node id within the same template
	Port int // input port index on the consumer
}

// Node is one vertex of a template. Nodes are immutable after linking, so
// templates can be shared by every processor (the paper replicates
// templates in processor-local memory, §7).
type Node struct {
	ID   int
	Kind NodeKind
	// Name is the operator or callee name (OpNode, CallNode,
	// MakeClosureNode) or a debug label.
	Name string
	// NIn is the number of input ports.
	NIn int
	// Out lists the consumers of this node's single output.
	Out []Edge
	// Const holds the value of a ConstNode; Index the parameter slot of a
	// ParamNode or the element index of a DetupleNode.
	Const value.Value
	Index int
	// Op is the resolved operator of an OpNode.
	Op *operator.Operator
	// Callee is the resolved callee template (CallNode, MakeClosureNode),
	// filled by linking.
	Callee *Template
	// Then and Else are the branch subtemplates of a CondNode.
	Then, Else *Template
	// Tail marks a CallNode or CallClosureNode in tail position; the
	// runtime replaces the current activation instead of nesting (§7).
	Tail bool
	// Spread marks a producer whose consumers are exclusively DetupleNodes
	// with pairwise-distinct indices — the compiled form of a
	// multiple-value decomposition. The runtime then splits ownership of
	// the package's elements among the consumers instead of retaining the
	// whole package per consumer, so a split operator's pieces stay
	// exclusively owned and the copy-on-write machinery stays idle
	// (§2.1's zero-copy splits). Computed by Link.
	Spread bool
	// SpreadConsumer marks a DetupleNode fed by a Spread producer: it
	// takes ownership of element Index only.
	SpreadConsumer bool
	// CoveredIdx, set on one designated consumer of a Spread producer,
	// lists every element index some sibling extracts; the designee
	// releases the uncovered elements.
	CoveredIdx []int
	// Pos points back at the source expression for node timing listings.
	Pos source.Pos

	// The Mem* fields are stamped by the optional memory-plan pass
	// (internal/opt.PlanMemory) and are all false/nil in unplanned programs.

	// MemOwned marks a node whose output the plan proves exclusively owned:
	// every block reachable from it has refcount 1 when it leaves the node.
	// The runtime enforces the claim at OpNodes (copying any shared result
	// block), which is what lets consumers trust it without checking.
	MemOwned bool
	// MemOwnedArgs marks, per input port, values proven exclusively owned on
	// arrival: the producer's output is owned and this is its only consumer.
	// A destructive operator may take such an argument in place without the
	// Writable walk, and a port whose value dies here may skip the atomic
	// release and recycle the payload.
	MemOwnedArgs []bool
	// MemTransferEnv marks a CallClosureNode that transfers the closure's
	// environment references directly to the callee activation, eliding the
	// per-value retain (for the callee) + release (of the closure) pair.
	MemTransferEnv bool

	// The fusion fields are stamped by the optional operator-fusion pass
	// (internal/opt.FuseGraph) and are all zero in unfused programs.

	// Fused marks a node that belongs to a fused supernode: it is never
	// scheduled individually — external deliveries gate on the cluster head
	// instead, and the whole cluster executes as one straight-line dispatch.
	Fused bool
	// FuseHead is the cluster head's node id (meaningful only when Fused).
	FuseHead int
	// FuseCluster, set only on the cluster head, describes the supernode.
	FuseCluster *Cluster
	// FuseInternalOut marks a non-tail cluster member: its single out edge
	// stays inside the cluster, so the produced value is stored straight
	// into the next member's input slot with no counter decrement and no
	// ready-queue round trip.
	FuseInternalOut bool
	// BLevel is the node's static bottom level: the weight of the longest
	// chain from this node to any sink of its template, every operator
	// weighing one unit. The real executor uses it as a tie-break priority
	// so the longest remaining chain is pulled first.
	BLevel int64
}

// Cluster describes one fused supernode: a chain (or delay-free small tree)
// of single-consumer nodes the runtime dispatches once and executes as a
// straight-line sequence. The fusion pass guarantees that every external
// input of every member is an ancestor of the head (or a param/const filled
// at activation creation), so gating the whole cluster on the head never
// delays it past the moment the unfused head would have fired — fusion is
// parallelism-neutral by construction.
type Cluster struct {
	// Index is the cluster's ordinal within its template (dot rendering).
	Index int
	// Head is the first member in execution order; the cluster schedules
	// and gates under this node's identity.
	Head int
	// Nodes lists the members in execution (topological) order; Nodes[0] is
	// the head and the final entry is the tail, the only member whose
	// output leaves the cluster.
	Nodes []int
	// ExtIn is the number of input edges arriving from outside the cluster
	// — the head's initial ready counter.
	ExtIn int
}

// Template is the compiled subgraph of one function (§7). The run-time
// system executes small data structures called template activations which
// contain enough buffer space to evaluate the template once, plus a pointer
// back to the template.
type Template struct {
	// Name is the unique function name ("" only for anonymous branch
	// subtemplates, which get a synthetic name).
	Name string
	// ID numbers the template densely within its program, branch
	// subtemplates included (see Number); the runtime indexes its activation
	// free lists by it.
	ID int
	// NParams is the user-visible parameter count; NCaptures the number of
	// trailing capture parameters. An activation takes NParams + NCaptures
	// arguments.
	NParams   int
	NCaptures int
	// Recursive functions expand at the lowest ready-queue priority.
	Recursive bool
	// Nodes in creation order; Nodes[i].ID == i.
	Nodes []*Node
	// Result is the node whose output is the template's value.
	Result int
	// Clusters lists the fused supernodes of this template (empty unless
	// the fusion pass ran). Used by the dot renderer and reports; the
	// runtime reaches clusters through Node.FuseCluster.
	Clusters []*Cluster

	layoutOnce sync.Once
	inOff      []int // input-buffer offset per node
	totIn      int   // total input slots
}

// Layout returns, computing once, the per-node offsets into a flat input
// buffer and the buffer's total size. A template activation allocates
// exactly this much value space — the paper's "enough data buffer space to
// execute the given subgraph" (§7).
func (t *Template) Layout() (offsets []int, total int) {
	t.layoutOnce.Do(func() {
		t.inOff = make([]int, len(t.Nodes))
		for i, n := range t.Nodes {
			t.inOff[i] = t.totIn
			t.totIn += n.NIn
		}
	})
	return t.inOff, t.totIn
}

// FuncName implements value.FuncRef.
func (t *Template) FuncName() string { return t.Name }

// ParamCount implements value.FuncRef: the argument count a caller of a
// closure over this template must supply.
func (t *Template) ParamCount() int { return t.NParams }

// NumArgs returns the total activation argument count (params + captures).
func (t *Template) NumArgs() int { return t.NParams + t.NCaptures }

// add appends a node, assigning its ID.
func (t *Template) add(n *Node) int {
	n.ID = len(t.Nodes)
	t.Nodes = append(t.Nodes, n)
	return n.ID
}

// connect wires producer from to port p of consumer to.
func (t *Template) connect(from, to, port int) {
	t.Nodes[from].Out = append(t.Nodes[from].Out, Edge{To: to, Port: port})
}

// Validate checks structural invariants: edge targets in range, port
// indices within the consumer's arity, every non-source node's ports all
// fed exactly once, and the result node present. The compiler validates
// every template it emits; the check is cheap and runs once.
func (t *Template) Validate() error {
	if t.Result < 0 || t.Result >= len(t.Nodes) {
		return fmt.Errorf("template %s: result node %d out of range", t.Name, t.Result)
	}
	fed := make([][]int, len(t.Nodes))
	for i, n := range t.Nodes {
		if n.ID != i {
			return fmt.Errorf("template %s: node %d has ID %d", t.Name, i, n.ID)
		}
		fed[i] = make([]int, n.NIn)
	}
	for _, n := range t.Nodes {
		for _, e := range n.Out {
			if e.To < 0 || e.To >= len(t.Nodes) {
				return fmt.Errorf("template %s: node %d edge to missing node %d", t.Name, n.ID, e.To)
			}
			if e.Port < 0 || e.Port >= t.Nodes[e.To].NIn {
				return fmt.Errorf("template %s: node %d edge to node %d port %d out of range (NIn=%d)",
					t.Name, n.ID, e.To, e.Port, t.Nodes[e.To].NIn)
			}
			fed[e.To][e.Port]++
		}
	}
	for i, ports := range fed {
		for p, c := range ports {
			if c != 1 {
				return fmt.Errorf("template %s: node %d (%s) port %d fed %d times",
					t.Name, i, t.Nodes[i].Kind, p, c)
			}
		}
	}
	for _, n := range t.Nodes {
		switch n.Kind {
		case ParamNode:
			if n.Index < 0 || n.Index >= t.NumArgs() {
				return fmt.Errorf("template %s: param node %d slot %d out of range", t.Name, n.ID, n.Index)
			}
		case ConstNode:
			if n.Const == nil {
				return fmt.Errorf("template %s: const node %d has no value", t.Name, n.ID)
			}
		case OpNode:
			if n.Op == nil {
				return fmt.Errorf("template %s: op node %d (%s) unresolved", t.Name, n.ID, n.Name)
			}
		case CondNode:
			if n.Then == nil || n.Else == nil {
				return fmt.Errorf("template %s: cond node %d missing branches", t.Name, n.ID)
			}
			if err := n.Then.Validate(); err != nil {
				return err
			}
			if err := n.Else.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// MemoryWords estimates the template's resident size in 8-byte words:
// node descriptors, edge lists, and branch subtemplates. Templates are
// immutable and shared (the paper replicates them per processor because
// they represent over 80% of the runtime system's memory, §7); this
// figure feeds the mem experiment that checks the claim.
func (t *Template) MemoryWords() int {
	const nodeWords = 16 // Node struct fields
	words := 8           // template header
	for _, n := range t.Nodes {
		words += nodeWords + 2*len(n.Out) + len(n.CoveredIdx)
		if n.Kind == CondNode {
			words += n.Then.MemoryWords() + n.Else.MemoryWords()
		}
	}
	return words
}

// ActivationWords is the per-activation buffer size in words: one value
// slot per input port plus one counter per node (§7: "enough data buffer
// space to execute the given subgraph").
func (t *Template) ActivationWords() int {
	_, total := t.Layout()
	return 4 + 2*total + len(t.Nodes)
}

// CountNodes returns the node count including branch subtemplates.
func (t *Template) CountNodes() int {
	n := len(t.Nodes)
	for _, nd := range t.Nodes {
		if nd.Kind == CondNode {
			n += nd.Then.CountNodes() + nd.Else.CountNodes()
		}
	}
	return n
}

// Program is a linked set of templates ready for execution.
type Program struct {
	// Templates maps unique names (including generated loop templates) to
	// subgraphs.
	Templates map[string]*Template
	// Main is the entry template, nil if the program defines none.
	Main *Template
	// Registry resolves operators at execution time (already resolved into
	// OpNodes; kept for tooling).
	Registry *operator.Registry
	// Fused records that the operator-fusion pass ran over this program;
	// the executors then dispatch fused clusters as supernodes and order
	// ready nodes by their static bottom levels.
	Fused bool
	// OpTimeout is the smallest positive Operator.Timeout among the
	// program's operator nodes, recorded by Link (zero when there is none).
	// With Config.OpTimeout it tells the runtime, without a walk, whether
	// any operator call runs under a deadline; a program assembled without
	// Link sets it itself.
	OpTimeout time.Duration
	// NumTemplates is the number of template IDs Number handed out: every
	// template in Templates and every branch subtemplate beneath them. Zero
	// means the program was never numbered, and the runtime refuses it.
	NumTemplates int
}

// Number assigns every template of p a dense ID in [0, NumTemplates): the
// templates of Templates in name order, each followed depth-first by its
// branch subtemplates. Link calls it; a program assembled by hand calls it
// before execution.
func Number(p *Program) {
	next := 0
	var number func(t *Template)
	number = func(t *Template) {
		if t == nil {
			return // an unlinked branch of a hand-built template
		}
		t.ID = next
		next++
		for _, n := range t.Nodes {
			if n.Kind == CondNode {
				number(n.Then)
				number(n.Else)
			}
		}
	}
	for _, name := range p.names() {
		number(p.Templates[name])
	}
	p.NumTemplates = next
}

// names returns the keys of Templates, sorted.
func (p *Program) names() []string {
	names := make([]string, 0, len(p.Templates))
	for name := range p.Templates {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MemoryWords totals template memory over the program.
func (p *Program) MemoryWords() int {
	w := 0
	for _, t := range p.Templates {
		w += t.MemoryWords()
	}
	return w
}

// NodeCount totals nodes over all templates, including branch subtemplates.
func (p *Program) NodeCount() int {
	n := 0
	for _, t := range p.Templates {
		n += t.CountNodes()
	}
	return n
}

// Template returns a template by name.
func (p *Program) Template(name string) (*Template, bool) {
	t, ok := p.Templates[name]
	return t, ok
}
