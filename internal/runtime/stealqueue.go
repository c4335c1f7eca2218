package runtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// This file implements the real executor's work-stealing ready queue — the
// replacement for the original single-mutex three-level queue. The §7
// priority semantics are preserved per worker and per steal attempt: each
// worker owns one Chase-Lev deque per priority level and always drains
// normal operators before non-recursive expansions before recursive
// expansions, whether taking from its own deques or from a victim.
//
// The structure:
//
//   - local deques: the owning worker pushes and pops LIFO at the bottom
//     (cache locality — a node's consumers run hot on the producer's
//     worker); thieves steal FIFO from the top, taking the oldest work,
//     which for this runtime tends to be the widest subtrees. The boot
//     worker seeds worker 0's deques before any worker goroutine exists,
//     so seeding needs no queue of its own.
//   - the hand-off slot: while no peer is parked, the newest task of the
//     highest priority that an execution releases waits in a private
//     one-task slot of its worker instead of a deque, and runs next there
//     unless a higher-priority task of the worker's own is waiting. That is
//     exactly the task LIFO order would pop, so §7's order is unchanged; what
//     goes is the deque round trip and the shared outstanding add and
//     subtract, because the executing task donates its unit to the slot's.
//     A thief never sees the slot. While a peer is parked, every task is
//     pushed and the peer notified, which exposes work as soon as someone
//     can take it.
//   - idle workers steal FIFO from their peers (the second tier), spin
//     briefly, then register on an idle list and park on a private
//     one-token parker. Pushes wake at most one parked worker
//     (notifyOne), so a push never pays a condvar-herd broadcast.

// wsArray is one growable ring of a Chase-Lev deque. Slots hold *task so
// every slot access is a single atomic pointer operation.
type wsArray struct {
	mask  int64
	slots []atomic.Pointer[task]
}

func newWSArray(size int64) *wsArray {
	return &wsArray{mask: size - 1, slots: make([]atomic.Pointer[task], size)}
}

func (a *wsArray) get(i int64) *task    { return a.slots[i&a.mask].Load() }
func (a *wsArray) put(i int64, t *task) { a.slots[i&a.mask].Store(t) }
func (a *wsArray) size() int64          { return int64(len(a.slots)) }

// wsDeque is a Chase-Lev work-stealing deque (Chase & Lev, SPAA'05; the
// sequentially-consistent formulation, which is what Go's sync/atomic
// provides). The owner pushes and pops at bottom; thieves CAS top. Arrays
// only grow and old arrays are never recycled, so a thief holding a stale
// array still reads the correct element for any index it successfully
// claims.
type wsDeque struct {
	bottom atomic.Int64
	top    atomic.Int64
	arr    atomic.Pointer[wsArray]
}

const wsInitialSize = 64

func (d *wsDeque) init() {
	d.arr.Store(newWSArray(wsInitialSize))
}

// push appends t at the bottom. Owner only.
func (d *wsDeque) push(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	a := d.arr.Load()
	if b-tp >= a.size() {
		a = d.grow(a, tp, b)
	}
	a.put(b, t)
	d.bottom.Store(b + 1)
}

// grow doubles the ring, copying the live window [top, bottom).
func (d *wsDeque) grow(old *wsArray, top, bottom int64) *wsArray {
	na := newWSArray(old.size() * 2)
	for i := top; i < bottom; i++ {
		na.put(i, old.get(i))
	}
	d.arr.Store(na)
	return na
}

// pop removes the most recently pushed task (LIFO). Owner only. Returns
// nil when the deque is empty or the last element was lost to a thief.
func (d *wsDeque) pop() *task {
	b := d.bottom.Load() - 1
	a := d.arr.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: undo the reservation.
		d.bottom.Store(b + 1)
		return nil
	}
	tk := a.get(b)
	if t == b {
		// Single element left: race thieves for it via top.
		if !d.top.CompareAndSwap(t, t+1) {
			tk = nil
		}
		d.bottom.Store(b + 1)
		return tk
	}
	return tk
}

// steal removes the oldest task (FIFO). Safe from any goroutine. The
// second result distinguishes "lost the race, retry" (true) from "deque
// observed empty" (false).
func (d *wsDeque) steal() (*task, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	a := d.arr.Load()
	tk := a.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return tk, true
}

// isEmpty is a racy size probe used only by the pre-park re-check; a
// transient false negative is corrected by the notifyOne handshake.
func (d *wsDeque) isEmpty() bool { return d.top.Load() >= d.bottom.Load() }

// parker is a one-token binary semaphore: unpark is non-blocking and
// idempotent while a token is pending, park consumes a token. A spurious
// token only costs one extra scan of the queues.
type parker struct {
	ch chan struct{}
}

func (p *parker) park() { <-p.ch }
func (p *parker) unpark() {
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// workerDeques is one worker's trio of priority deques and its hand-off
// slot. Everything but the deques is owner-only.
type workerDeques struct {
	d [numPriorities]wsDeque
	// slot, when non-nil, is the task next hands out first: the newest task
	// of the highest priority the executing task pushed; slotPri is its
	// level.
	slot    *task
	slotPri Priority
	// donated says the executing task passed its outstanding unit to a slot
	// task, so retire must not subtract it.
	donated bool
	// The pad keeps the owner's slot writes and deque pushes off the cache
	// line of its neighbour's deques.
	_ [64]byte
}

// stealScheduler coordinates the real executor's workers.
type stealScheduler struct {
	wallClock
	local   []workerDeques
	parkers []parker

	// idle is a LIFO stack of parked worker ids, guarded by idleMu.
	// nidle mirrors len(idle) so the push fast path can skip the lock.
	idleMu sync.Mutex
	idle   []int
	nidle  atomic.Int64

	// outstanding counts the current run's unretired tasks, in units that
	// hand-off donations move between tasks (push); quiescence is
	// outstanding returning to zero, which closes the scheduler. Every push
	// reads nidle and every next reads closed, while outstanding is written
	// on deque pushes and retires, so the pads give it a cache line of its
	// own.
	_           [64]byte
	outstanding atomic.Int64
	_           [56]byte
	closed      atomic.Bool
	stats       *Stats
	// tr, when non-nil, records steal and park/unpark events. Each worker
	// records only under its own id, so no lock is needed.
	tr *tracer
}

func newStealScheduler(workers int, stats *Stats, tr *tracer) *stealScheduler {
	s := &stealScheduler{
		wallClock: wallClock{time.Now()},
		local:     make([]workerDeques, workers),
		parkers:   make([]parker, workers),
		stats:     stats,
		tr:        tr,
	}
	for w := range s.local {
		for pri := range s.local[w].d {
			s.local[w].d[pri].init()
		}
		s.parkers[w].ch = make(chan struct{}, 1)
	}
	return s
}

// push schedules the node on the pushing worker: into its hand-off slot or
// onto its own deque. The boot worker (proc -1) seeds worker 0's deques
// instead: it runs before any worker goroutine is spawned, and the go
// statement orders its pushes before every pop and steal, so it may act as
// that deque's owner. The task is written into the node's slot in its activation
// (activation.tasks), never allocated.
//
// Every task not yet retired holds one unit of outstanding. A task that
// takes an empty hand-off slot gets the executing task's unit; every other
// push pays one. When a newcomer of equal or higher priority displaces the
// slot's task, that task moves to its deque with the unit it holds and the
// newcomer pays for itself, so either way exactly one add is due.
func (s *stealScheduler) push(w *worker, a *activation, n *graph.Node) {
	pri := w.e.classify(a, n)
	t := &a.tasks[n.ID]
	if w.proc < 0 {
		s.outstanding.Add(1)
		if s.tr != nil {
			s.tr.record(-1, TraceEvent{Type: TraceInject, Ts: s.tr.now(),
				Act: a.seq, Node: int32(n.ID), Name: traceLabel(n), Tmpl: a.tmpl.Name})
		}
		*t = task{act: a, node: n, from: -1}
		s.local[0].d[pri].push(t)
		atomic.AddInt64(&s.stats.InjectedTasks, 1)
		return
	}
	*t = task{act: a, node: n, from: int32(w.proc)}
	own := &s.local[w.proc]
	switch {
	case own.slot == nil && s.nidle.Load() == 0:
		own.slot, own.slotPri, own.donated = t, pri, true
		return
	case own.slot != nil && pri <= own.slotPri:
		own.slot, t = t, own.slot
		own.slotPri, pri = pri, own.slotPri
	}
	s.outstanding.Add(1)
	s.pushLocal(w.proc, t, pri)
}

// next is one worker's scan-steal-park cycle, until it finds a task or the
// run closes the scheduler (quiescence, error, or cancellation). A full
// hand-off slot goes first, unless one of the worker's own deques of higher
// priority holds a task: then the slot's task returns to its deque, where
// LIFO order would have kept it, and the scan proceeds as without it. The
// cycle retries find a few times around the Go scheduler before parking — the
// "spin" half of spin-then-park. Stealing is already a full sweep, so a
// couple of rounds suffice to ride out a producer that is between push and
// notify.
func (s *stealScheduler) next(w *worker) (task, bool) {
	own := &s.local[w.proc]
	own.donated = false
	if t := own.slot; t != nil {
		own.slot = nil
		if !s.closed.Load() && !own.waitingAbove(own.slotPri) {
			return *t, true
		}
		s.pushLocal(w.proc, t, own.slotPri)
	}
	const spins = 4
	for spin := 0; ; spin++ {
		if s.closed.Load() {
			return task{}, false
		}
		if spin == spins {
			s.park(w.proc)
			spin = -1
			continue
		}
		if t := s.find(w.proc); t != nil {
			return *t, true
		}
		runtime.Gosched()
	}
}

// waitingAbove reports whether one of the worker's own deques of higher
// priority than pri holds a task. Owner only: a thief may empty a deque
// behind the check, which costs one extra pop, but nothing can fill one.
func (own *workerDeques) waitingAbove(pri Priority) bool {
	for p := PriNormal; p < pri; p++ {
		if !own.d[p].isEmpty() {
			return true
		}
	}
	return false
}

// retire counts the task out; the last one closes the scheduler. A task
// that donated its unit to a slot task has nothing left to count out.
func (s *stealScheduler) retire(w *worker, _ task) {
	if s.local[w.proc].donated {
		return
	}
	if s.outstanding.Add(-1) == 0 {
		s.close()
	}
}

// pushLocal enqueues t on worker wid's own deque and wakes one parked
// worker if any is idle. Must be called from wid's goroutine.
func (s *stealScheduler) pushLocal(wid int, t *task, pri Priority) {
	s.local[wid].d[pri].push(t)
	s.notifyOne()
}

// notifyOne wakes at most one parked worker. The nidle fast path makes a
// push by a busy pool a single atomic load.
func (s *stealScheduler) notifyOne() {
	if s.nidle.Load() == 0 {
		return
	}
	s.idleMu.Lock()
	if len(s.idle) == 0 {
		s.idleMu.Unlock()
		return
	}
	wid := s.idle[len(s.idle)-1]
	s.idle = s.idle[:len(s.idle)-1]
	s.nidle.Store(int64(len(s.idle)))
	s.idleMu.Unlock()
	s.parkers[wid].unpark()
}

// find returns the next task for worker wid, honoring the §7 priority
// order at both tiers: own deques, then one steal sweep over the other
// workers (victims scanned starting after wid so thieves spread out).
// Returns nil when no work was found anywhere.
func (s *stealScheduler) find(wid int) *task {
	own := &s.local[wid]
	for pri := range own.d {
		if t := own.d[pri].pop(); t != nil {
			return t
		}
	}
	n := len(s.local)
	for off := 1; off < n; off++ {
		if t := s.stealFrom(wid, (wid+off)%n); t != nil {
			return t
		}
	}
	return nil
}

// stealFrom attempts one steal from victim vid for worker wid, honoring
// the per-victim priority order.
func (s *stealScheduler) stealFrom(wid, vid int) *task {
	victim := &s.local[vid]
	for pri := range victim.d {
		for {
			t, retry := victim.d[pri].steal()
			if t != nil {
				atomic.AddInt64(&s.stats.Steals, 1)
				if s.tr != nil {
					s.tr.record(wid, TraceEvent{Type: TraceSteal, Ts: s.tr.now(), Arg: int64(vid)})
				}
				return t
			}
			if !retry {
				break
			}
			atomic.AddInt64(&s.stats.StealContention, 1)
		}
	}
	return nil
}

// anyWork is the racy pre-park probe: it may report work that a racing
// worker immediately claims (costing one extra scan) but, paired with the
// register-then-recheck order in park and the push-then-notify order in
// the producers, it can never let the last task strand while every worker
// sleeps.
func (s *stealScheduler) anyWork() bool {
	for w := range s.local {
		for pri := range s.local[w].d {
			if !s.local[w].d[pri].isEmpty() {
				return true
			}
		}
	}
	return false
}

// park blocks wid until a producer or close wakes it. The worker
// registers first and re-checks afterwards: either the racing producer
// sees the registration (and sends a token) or the re-check sees the
// pushed task (and the worker withdraws).
func (s *stealScheduler) park(wid int) {
	s.idleMu.Lock()
	s.idle = append(s.idle, wid)
	s.nidle.Store(int64(len(s.idle)))
	s.idleMu.Unlock()

	if s.closed.Load() || s.anyWork() {
		// Withdraw if still registered; if a notifier already claimed this
		// worker a token is in flight, so fall through and consume it.
		withdrawn := false
		s.idleMu.Lock()
		for i, id := range s.idle {
			if id == wid {
				s.idle = append(s.idle[:i], s.idle[i+1:]...)
				withdrawn = true
				break
			}
		}
		s.nidle.Store(int64(len(s.idle)))
		s.idleMu.Unlock()
		if withdrawn {
			return
		}
	}
	atomic.AddInt64(&s.stats.Parks, 1)
	if s.tr != nil {
		s.tr.record(wid, TraceEvent{Type: TracePark, Ts: s.tr.now()})
	}
	s.parkers[wid].park()
	if s.tr != nil {
		s.tr.record(wid, TraceEvent{Type: TraceUnpark, Ts: s.tr.now()})
	}
}

// drain empties every hand-off slot and every deque, returning the
// abandoned tasks so the error-path teardown can sweep their activations.
// Callers must guarantee the pool has stopped (post runWorkers): the
// steal/pop primitives are reused, but the scan assumes no concurrent owner
// or thief.
func (s *stealScheduler) drain() []task {
	var out []task
	for w := range s.local {
		if t := s.local[w].slot; t != nil {
			out = append(out, *t)
			s.local[w].slot = nil
		}
		for pri := range s.local[w].d {
			for {
				t, _ := s.local[w].d[pri].steal()
				if t == nil {
					break
				}
				out = append(out, *t)
			}
		}
	}
	return out
}

// reopen readies the scheduler for another run of a reused engine: the
// deques, parkers, and idle stack all survive (the deques and hand-off slots
// are empty at quiescence and drained on the error path), so only the closed
// flag, the donation marks and the tracer binding need refreshing. Stray parker tokens left by
// the close broadcast are swallowed here — a leftover token would merely
// cost one spurious rescan, but consuming it keeps park accounting exact.
// A failed run leaves outstanding above zero; the clock restarts.
func (s *stealScheduler) reopen(tr *tracer) {
	s.start = time.Now()
	s.outstanding.Store(0)
	s.closed.Store(false)
	s.tr = tr
	s.idleMu.Lock()
	s.idle = s.idle[:0]
	s.nidle.Store(0)
	s.idleMu.Unlock()
	for w := range s.local {
		s.local[w].slot, s.local[w].donated = nil, false
	}
	for w := range s.parkers {
		select {
		case <-s.parkers[w].ch:
		default:
		}
	}
}

// close marks the run over and wakes every parked worker. Called at
// quiescence, on error abort, and by every worker on its way out (only the
// first call has anyone to wake); queued tasks are abandoned by design.
func (s *stealScheduler) close() {
	if s.closed.Swap(true) {
		return
	}
	s.idleMu.Lock()
	idle := s.idle
	s.idle = nil
	s.nidle.Store(0)
	s.idleMu.Unlock()
	for _, wid := range idle {
		s.parkers[wid].unpark()
	}
	// Workers that were registering concurrently with the close re-check
	// closed after registering and withdraw; workers already running see
	// closed at the top of their loop.
}
