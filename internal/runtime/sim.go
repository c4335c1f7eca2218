package runtime

import (
	"container/heap"
	"math"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/value"
)

// simTask is a ready-heap entry: a task, the virtual time it became ready,
// and a FIFO tie-break within a priority level. The keys stay out of task
// itself, which keeps its four fields (see task).
type simTask struct {
	task
	ready int64
	seq   int64
}

// simHeap orders entries by (ready, seq).
type simHeap []simTask

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x interface{}) { *h = append(*h, x.(simTask)) }
func (h *simHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = simTask{}
	*h = old[:n-1]
	return it
}

// delivery is one value delivery of the executing node, awaiting its
// producer's completion time.
type delivery struct {
	act    *activation
	nodeID int
}

// Priority levels of the simulated machine's ready heaps, in decreasing
// order of priority: §7's three-level ready queue. The real executor has
// none (stealqueue.go).
type Priority int

// Ready-queue priority levels.
const (
	// PriNormal: ordinary operators (and tuple/closure plumbing).
	PriNormal Priority = iota
	// PriCall: non-recursive subgraph expansions.
	PriCall
	// PriRecursive: recursive subgraph expansions, kept back so existing
	// activations drain (and recycle) before new recursion unfolds.
	PriRecursive
	numPriorities
)

// classify assigns the ready-queue priority for a runnable node; with
// Config.DisablePriorities every node is PriNormal. For dynamic closure
// calls the closure value is already on input 0, so the callee's recursion
// flag is known.
func (e *Engine) classify(a *activation, n *graph.Node) Priority {
	if e.cfg.DisablePriorities {
		return PriNormal
	}
	switch n.Kind {
	case graph.CallNode:
		if n.Callee != nil && n.Callee.Recursive {
			return PriRecursive
		}
		return PriCall
	case graph.CondNode:
		return PriCall
	case graph.CallClosureNode:
		off, _ := a.tmpl.Layout()
		if cl, ok := a.buf[off[n.ID]].(*value.Closure); ok {
			if t, ok := cl.Fn.(*graph.Template); ok && t.Recursive {
				return PriRecursive
			}
		}
		return PriCall
	default:
		return PriNormal
	}
}

// simScheduler executes the program deterministically on P virtual
// processors. Operators actually run (producing real values); their charged
// work units, the machine profile's dispatch overhead, and the modeled
// memory cost of their input blocks advance a virtual clock. It is a list
// scheduler honoring the three-level priority discipline: when a processor
// is free it takes the highest-priority item that is ready, with FIFO order
// inside a level.
//
// The §9.3 affinity policies act here: AffinityOperator prefers the
// processor that last ran the same operator, AffinityData the processor
// holding the largest share of the input blocks — each only when the
// preferred processor can start the item without delay.
//
// The simulated executor is single-threaded: one worker (re-stamped with the
// virtual processor per item) and therefore one plan state, keeping pool
// reuse — and with it the trace — deterministic.
type simScheduler struct {
	e        *Engine
	prof     *machine.Profile
	procFree []int64
	busy     []int64
	lastProc map[string]int // operator name -> last processor
	// home is the run's §9.3 data-placement table: the processor whose cache
	// last touched each block. A block not in it has no placement yet.
	home  map[*value.Block]int32
	heaps [numPriorities]simHeap
	seq   int64
	// start is the executing item's start time, and what the tracer reads:
	// events recorded mid-execution (deliveries, copies) stamp the executing
	// node's virtual start.
	start int64
	// at is when the last retired execution ended (0 while seeding); next
	// publishes what that execution released no earlier than this.
	at         int64
	buffered   []simTask
	deliveries []delivery
}

func newSimScheduler(e *Engine, nproc int) *simScheduler {
	s := &simScheduler{e: e, prof: e.cfg.profile(), procFree: make([]int64, nproc),
		busy: make([]int64, nproc), lastProc: make(map[string]int),
		home: make(map[*value.Block]int32)}
	e.stats.ProcBusyTicks = s.busy
	return s
}

func (s *simScheduler) push(_ *worker, a *activation, n *graph.Node) {
	s.seq++
	s.buffered = append(s.buffered, simTask{task: task{act: a, node: n}, seq: s.seq})
}

// delivered notes a value delivery by the executing node so flush can stamp
// the consumer's earliest start with the producer's completion time.
func (s *simScheduler) delivered(a *activation, nodeID int) {
	s.deliveries = append(s.deliveries, delivery{act: a, nodeID: nodeID})
}

// flush publishes the effects of the execution that finished at s.at:
// every delivery stamps its consumer's earliest start, and every node
// that became runnable enters the ready heap no earlier than the
// latest delivery it received — a consumer must not start before a
// slow producer has finished, even if that producer's value was
// computed (popped) first.
func (s *simScheduler) flush() {
	for _, d := range s.deliveries {
		if d.act.readyAt == nil {
			d.act.readyAt = make([]int64, len(d.act.tmpl.Nodes))
		}
		if s.at > d.act.readyAt[d.nodeID] {
			d.act.readyAt[d.nodeID] = s.at
		}
	}
	s.deliveries = s.deliveries[:0]
	for _, it := range s.buffered {
		it.ready = s.at
		if it.act.readyAt != nil && it.act.readyAt[it.node.ID] > it.ready {
			it.ready = it.act.readyAt[it.node.ID]
		}
		heap.Push(&s.heaps[s.e.classify(it.act, it.node)], it)
	}
	s.buffered = s.buffered[:0]
}

// next advances virtual time to the earliest moment a processor is free and
// an item is ready, takes the highest-priority such item, and places it.
func (s *simScheduler) next(w *worker) (task, bool) {
	s.flush()
	// The processor that is free earliest.
	earliest := 0
	for p, f := range s.procFree {
		if f < s.procFree[earliest] {
			earliest = p
		}
	}
	// Earliest ready time across all levels.
	minReady := int64(math.MaxInt64)
	for pri := range s.heaps {
		if len(s.heaps[pri]) > 0 && s.heaps[pri][0].ready < minReady {
			minReady = s.heaps[pri][0].ready
		}
	}
	if minReady == math.MaxInt64 {
		return task{}, false
	}
	// Every processor idles until work becomes ready.
	t := max(s.procFree[earliest], minReady)
	// Highest-priority item ready at t; the level holding minReady has one.
	var item simTask
	for pri := range s.heaps {
		if len(s.heaps[pri]) > 0 && s.heaps[pri][0].ready <= t {
			item = heap.Pop(&s.heaps[pri]).(simTask)
			break
		}
	}

	proc := s.place(item, earliest, t)
	s.start = max(s.procFree[proc], item.ready)
	w.proc = proc
	item.from = int32(proc)
	return item.task, true
}

func (s *simScheduler) now() int64 { return s.start }

// memTicks prices block traffic under the machine's memory model.
func (s *simScheduler) memTicks(local, remote int64) int64 {
	return int64(float64(local)*s.prof.LocalTicksPerWord) + int64(float64(remote)*s.prof.RemoteTicksPerWord)
}

// dur prices the dispatch w just executed, dispatch overhead included.
func (s *simScheduler) dur(w *worker) int64 {
	return max(1, s.prof.DispatchTicks+int64(float64(w.charge)*s.prof.TickPerUnit)+
		s.memTicks(w.localWords, w.remoteWords))
}

// end reads the virtual clock at the end of the executing dispatch.
func (s *simScheduler) end(w *worker) int64 { return s.start + s.dur(w) }

// retire prices the executed node and occupies its processor until then.
func (s *simScheduler) retire(w *worker, t task) {
	dur := s.dur(w)
	s.at = s.start + dur
	s.procFree[w.proc] = s.at
	s.busy[w.proc] += dur
	st := &s.e.stats
	st.BusyTicks += dur
	st.DispatchTicks += s.prof.DispatchTicks
	st.MemoryTicks += s.memTicks(w.localWords, w.remoteWords)
	st.MakespanTicks = max(st.MakespanTicks, s.at)
	if t.node.Kind == graph.OpNode {
		s.lastProc[t.node.Name] = w.proc
	}
}

// drain returns the abandoned work: the ready heaps and the not-yet-flushed
// buffer.
func (s *simScheduler) drain() []task {
	var out []task
	for pri := range s.heaps {
		for i := range s.heaps[pri] {
			out = append(out, s.heaps[pri][i].task)
		}
	}
	for i := range s.buffered {
		out = append(out, s.buffered[i].task)
	}
	return out
}

// place chooses the processor for an item — earliest is the one free
// soonest, t the time the item can start — under the configured §9.3
// policy. Every preference is overridden when the preferred processor would
// delay the start (§9.3: "this preference is overridden if the desired
// processor is busy").
func (s *simScheduler) place(item simTask, earliest int, t int64) int {
	e, procFree := s.e, s.procFree
	if item.node.Kind != graph.OpNode {
		return earliest
	}
	switch e.cfg.Affinity {
	case AffinityOperator:
		if pref, ok := s.lastProc[item.node.Name]; ok && procFree[pref] <= t {
			return pref
		}
	case AffinityData:
		// Weigh candidate processors by resident input words.
		weight := make(map[int32]int64)
		for _, in := range item.act.inputs(item.node) {
			for _, b := range value.Blocks(in, nil) {
				if p, ok := s.home[b]; ok {
					weight[p] += int64(b.Size())
				}
			}
		}
		best, bestW := -1, int64(0)
		for p, wgt := range weight {
			if int(p) < len(procFree) && (wgt > bestW || (wgt == bestW && best >= 0 && int(p) < best)) {
				best, bestW = int(p), wgt
			}
		}
		if best >= 0 && procFree[best] <= t {
			return best
		}
	}
	return earliest
}

// touch prices the block traffic of an OpNode's inputs for the simulated
// memory model and re-homes the blocks to w's processor.
func (s *simScheduler) touch(w *worker, ins []value.Value) {
	proc := int32(w.proc)
	var blocks []*value.Block
	for _, in := range ins {
		blocks = value.Blocks(in, blocks)
	}
	for _, b := range blocks {
		if p, ok := s.home[b]; !ok || p == proc {
			w.localWords += int64(b.Size())
		} else {
			w.remoteWords += int64(b.Size())
		}
		s.home[b] = proc
	}
}

// homeValue places freshly produced blocks in w's processor's cache.
func (s *simScheduler) homeValue(w *worker, v value.Value) {
	for _, b := range value.Blocks(v, nil) {
		if _, ok := s.home[b]; !ok {
			s.home[b] = int32(w.proc)
		}
	}
}

// inherit places a copy of src where src is: on the simulated machine the
// copy is made in the cache holding its source. Real runs keep no placement.
func (w *worker) inherit(src, cp *value.Block) {
	if s, ok := w.q.(*simScheduler); ok {
		if p, ok := s.home[src]; ok {
			s.home[cp] = p
		}
	}
}
