package runtime

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/value"
)

// continuation says where an activation's result goes: into port-less node
// `node` of activation `act`, or — when act is nil — out of the program.
type continuation struct {
	act  *activation
	node *graph.Node
}

// activation is one instance of a template in flight (§7): a pointer back
// to the template plus exactly enough buffer space to evaluate it once.
type activation struct {
	tmpl *graph.Template
	// buf holds every node's input values, at tmpl.Layout offsets.
	buf []value.Value
	// counts[n] is the number of inputs node n still waits for.
	counts []int32
	// tasks[n] is node n's ready-queue entry in the work-stealing scheduler,
	// which pushes its address instead of allocating one per push. §7's first
	// assumption makes one slot per node enough: a node is pushed at most
	// once per activation lifetime, the activation cannot recycle before that
	// node retires, and the scheduler copies the task out before anything
	// executes.
	tasks []task
	// remaining is the number of nodes that have not completed; the
	// activation recycles when it reaches zero.
	remaining int32
	// cont receives the result node's value.
	cont continuation
	// delegated is set when a tail call transferred cont to a child; the
	// result node then completes without delivering locally. Atomic: the
	// worker executing the result node writes it while workers completing
	// other nodes of the same activation read it.
	delegated atomic.Bool
	// seq is a deterministic creation stamp used by the simulated
	// scheduler for tie-breaking.
	seq int64
	// readyAt[n], used only by the simulated executor, is the latest
	// virtual completion time of any delivery to node n: a node may not
	// start before every producer has finished, even when the producers
	// were popped (and their values computed) earlier.
	readyAt []int64
}

func newActivation(t *graph.Template) *activation {
	_, total := t.Layout()
	a := &activation{
		tmpl:   t,
		buf:    make([]value.Value, total),
		counts: make([]int32, len(t.Nodes)),
		tasks:  make([]task, len(t.Nodes)),
	}
	a.reset()
	return a
}

// reset prepares a pooled activation for reuse.
func (a *activation) reset() {
	for i := range a.buf {
		a.buf[i] = nil
	}
	for i, n := range a.tmpl.Nodes {
		a.counts[i] = int32(n.NIn)
	}
	a.remaining = int32(len(a.tmpl.Nodes))
	a.cont = continuation{}
	if a.delegated.Load() {
		// A sequentially consistent store is an exchange; most activations
		// never delegated, so most resets skip it.
		a.delegated.Store(false)
	}
	for i := range a.readyAt {
		a.readyAt[i] = 0
	}
}

// inputs returns the input values of node n (aliasing the buffer).
func (a *activation) inputs(n *graph.Node) []value.Value {
	off, _ := a.tmpl.Layout()
	return a.buf[off[n.ID] : off[n.ID]+n.NIn]
}

// deliver stores v on node to's input port and decrements its ready
// counter, reporting whether the node became runnable.
func (a *activation) deliver(to, port int, v value.Value) bool {
	off, _ := a.tmpl.Layout()
	a.buf[off[to]+port] = v
	return atomic.AddInt32(&a.counts[to], -1) == 0
}

// settleMax bounds the linear-scan settle; node executions moving more
// blocks than this fall back to the map-based transferRefs.
const settleMax = 64

// settleRefs settles block reference counts after an operator-like node
// consumed ins and produced result. Each input value carried one reference
// per occurrence, owned by this node; the result must end up owning one
// reference per occurrence of each block it contains:
//
//   - an input occurrence transfers its reference to an unclaimed result
//     occurrence of the same block, or is released (it dies here);
//   - a new block's first result occurrence is covered by NewBlock's initial
//     reference, and every other unclaimed result occurrence retains.
//
// Blocks that die here go through releaseBlock, which recycles their
// payloads into the worker's pool.
//
// The scans are linear over the node's block lists, which live in the
// worker's scratch: operators move a handful of blocks.
func (w *worker) settleRefs(ins []value.Value, result value.Value) {
	st := &w.shard

	res := value.Blocks(result, w.settleRes[:0])
	inAll := w.settleIns[:0]
	for _, in := range ins {
		inAll = value.Blocks(in, inAll)
	}
	w.settleRes, w.settleIns = res[:0], inAll[:0]
	if len(inAll) == 0 && len(res) == 0 {
		return
	}
	if len(res) > settleMax || len(inAll) > settleMax {
		transferRefs(ins, result, st)
		return
	}
	claimed := append(w.settleClaims[:0], make([]bool, len(res))...)
	w.settleClaims = claimed[:0]

	// Pass 1: each input occurrence transfers its reference to an unclaimed
	// result occurrence of the same block, or dies at this node.
	for _, b := range inAll {
		transferred := false
		for k, rb := range res {
			if rb == b && !claimed[k] {
				claimed[k] = true
				transferred = true
				break
			}
		}
		if !transferred {
			w.releaseBlock(b)
		}
	}

	// Pass 2: unclaimed result occurrences need references of their own. A
	// fresh block's first occurrence is covered by NewBlock's initial
	// reference; every other occurrence retains.
	for k, rb := range res {
		if claimed[k] {
			continue
		}
		wasInput := false
		for _, ib := range inAll {
			if ib == rb {
				wasInput = true
				break
			}
		}
		if !wasInput {
			first := true
			for k2 := 0; k2 < k; k2++ {
				if res[k2] == rb {
					first = false
					break
				}
			}
			if first {
				continue
			}
		}
		rb.Retain(st)
	}
}

// releaseDying drops a reference to a value that dies at this node, the one
// way the executor drops a dying reference on a worker.
func (w *worker) releaseDying(v value.Value) {
	switch x := v.(type) {
	case *value.Block:
		w.releaseBlock(x)
	case value.Tuple:
		for _, el := range x {
			w.releaseDying(el)
		}
	case *value.Closure:
		for _, el := range x.Env {
			w.releaseDying(el)
		}
	}
}

// releaseBlock drops one reference to b and, when it was the last, hands
// b's payload to the worker's pool. Once the run has abandoned an operator
// call, a block is not recycled: the stuck goroutine may still read it (see
// Engine.abandoned).
func (w *worker) releaseBlock(b *value.Block) {
	if b.Release(&w.shard) && !w.e.abandoned.Load() {
		w.pool.Put(b.TakeData())
	}
}

// transferRefs is settleRefs' fallback for node executions moving more than
// settleMax blocks: the same reference semantics, counted in maps.
func transferRefs(ins []value.Value, result value.Value, st *value.BlockStats) {
	var inBlocks, resBlocks []*value.Block
	for _, in := range ins {
		inBlocks = value.Blocks(in, inBlocks)
	}
	resBlocks = value.Blocks(result, resBlocks)
	if len(inBlocks) == 0 && len(resBlocks) == 0 {
		return
	}
	resCnt := make(map[*value.Block]int, len(resBlocks))
	for _, b := range resBlocks {
		resCnt[b]++
	}
	wasInput := make(map[*value.Block]bool, len(inBlocks))
	for _, b := range inBlocks {
		wasInput[b] = true
		if resCnt[b] > 0 {
			resCnt[b]-- // reference transfers input -> result
		} else {
			b.Release(st)
		}
	}
	for b, extra := range resCnt {
		need := extra
		if !wasInput[b] {
			need-- // NewBlock supplied the first reference
		}
		for i := 0; i < need; i++ {
			b.Retain(st)
		}
	}
}

// makeWritable rewrites v so that every contained block is exclusively
// owned, copying shared blocks (§8 rule 2); a copy inherits its source's
// placement. It consumes the caller's references to replaced blocks and
// returns the number of words copied.
func (w *worker) makeWritable(v value.Value) (value.Value, int) {
	switch x := v.(type) {
	case *value.Block:
		nb, copied := x.Writable(&w.shard)
		if !copied {
			return nb, 0
		}
		w.inherit(x, nb)
		return nb, nb.Size()
	case value.Tuple:
		var words int
		out := make(value.Tuple, len(x))
		for i, el := range x {
			n := 0
			out[i], n = w.makeWritable(el)
			words += n
		}
		return out, words
	default:
		return v, 0
	}
}
