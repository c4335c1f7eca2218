package runtime

import "repro/internal/graph"

// serialQueue is the single-worker ready queue: the same three §7 priority
// levels as the work-stealing scheduler, but with plain value-typed FIFOs —
// a one-worker pool has no thieves, so the caller's goroutine runs the whole
// program and pays for no atomics, no parking, and no per-task allocation.
// Engine.run selects it when Workers == 1; the multi-worker scheduler lives
// in stealqueue.go.

// fifo is a queue level with O(1) amortized push/pop.
type fifo struct {
	items []task
	head  int
}

func (f *fifo) push(t task) { f.items = append(f.items, t) }

func (f *fifo) empty() bool { return f.head >= len(f.items) }

func (f *fifo) pop() task {
	t := f.items[f.head]
	f.items[f.head] = task{} // release references
	f.head++
	if f.head > 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return t
}

// serialQueue holds the three priority levels.
type serialQueue struct {
	wallClock
	levels [numPriorities]fifo
}

// push enqueues the node at its priority level. The one worker is proc 0,
// so the zero from already names it.
func (q *serialQueue) push(w *worker, a *activation, n *graph.Node) {
	q.levels[w.e.classify(a, n)].push(task{act: a, node: n})
}

// next takes the highest-priority available task; quiescence is simply the
// queue running dry.
func (q *serialQueue) next(*worker) (task, bool) {
	for pri := range q.levels {
		if !q.levels[pri].empty() {
			return q.levels[pri].pop(), true
		}
	}
	return task{}, false
}

func (q *serialQueue) retire(*worker, task) {}

func (q *serialQueue) drain() []task {
	var out []task
	for t, ok := q.next(nil); ok; t, ok = q.next(nil) {
		out = append(out, t)
	}
	return out
}
