package runtime

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/value"
)

// Operator deadlines without a goroutine per call. An engine is bounded when
// Config.OpTimeout or some Operator.Timeout is positive; New gives a bounded
// engine one reusable deadline slot per worker. Every attempt of a bounded
// operator runs inline on the dispatching worker's own goroutine through its
// slot: copy the arguments, publish the deadline in one atomic store, call
// the operator, and CAS the slot back to idle. One process-wide watchdog
// goroutine scans the slots of every bounded run in flight and, when a call
// overruns its deadline (or its run's context ends), CASes the slot to
// abandoned first. The CAS decides ownership: the worker that wins merges the
// call's charges and block accounting as usual; when the watchdog wins it
// owns the worker. An attempt with a retry left in a run still going is
// resumed on a fresh goroutine, which runs the node's next attempt and then
// the worker's task loop in the stuck goroutine's place; any other attempt
// is settled the way a failed terminal attempt is, the run fails, and the
// watchdog stands in for the stuck goroutine at the run's join. The operator
// cannot be preempted, so that goroutine is simply given up: when the
// operator finally returns it loses the CAS and unwinds with errAbandoned,
// which every frame up to the goroutine's root passes straight up without
// touching the engine, and the goroutine exits.
//
// The watchdog scans once per tick (the smallest registered limit / 4,
// clamped to [minTick, maxTick]), so a deadline fires between limit and
// limit + tick after the call started.

// errAbandoned is the sentinel a worker unwinds with after losing its slot to
// the watchdog: the node, the run's outcome and the goroutine's place at the
// join have all been taken over, so no frame may act on it. It is always
// returned bare, so the frames compare with ==.
var errAbandoned = errors.New("delirium: operator call abandoned to the watchdog")

// Publication word values other than a pending call's deadline (always > 0).
const (
	slotIdle      int64 = 0
	slotAbandoned int64 = -1
)

// Watchdog tick bounds.
const (
	minTick = time.Millisecond
	maxTick = 100 * time.Millisecond
)

// clockEpoch anchors the deadline clock; time.Since on a monotonic reading
// is one clock read.
var clockEpoch = time.Now()

func clock() int64 { return int64(time.Since(clockEpoch)) }

// deadlineSlot is one worker's reusable deadline state.
type deadlineSlot struct {
	// word is the publication word: slotIdle, a pending call's deadline on
	// the deadline clock, or slotAbandoned once the watchdog took the call
	// (the slot then belongs to the stuck goroutine for good).
	word atomic.Int64
	// sw is the worker the operator body sees as its Context: the engine and
	// processor, a shard of its own, which the owner merges only when it wins
	// the CAS, so a goroutine abandoned inside the body can never write block
	// accounting into the engine, and the owner's block pool, borrowed for
	// the call. The watchdog gives an owner whose call it abandons a fresh
	// pool, so the stuck goroutine keeps the old one to itself.
	sw   worker
	argv []value.Value

	// The pending call, written before its deadline is published and read by
	// the watchdog only after it wins the CAS: the dispatching worker (whose
	// charge total the watchdog flushes), the node and its activation, the
	// attempt number and the bound.
	owner   *worker
	a       *activation
	n       *graph.Node
	attempt int
	limit   time.Duration
	// pristine holds the originals of the attempt's argument copies while
	// it has a successor (Engine.attempts): the watchdog restores them to
	// retry, or releases them with the node.
	pristine []value.Value
}

// deadlines is a bounded engine's slot set, kept across Reset, and its
// registration with the watchdog while a run is in flight.
type deadlines struct {
	e     *Engine
	slots []*deadlineSlot
	// tick is this engine's scan period: its smallest limit / 4, clamped.
	tick time.Duration
	// canceled is set when the run's context ends: the watchdog then
	// abandons every pending call of the run at once.
	canceled atomic.Bool
	// idx is the position in dog.runs while registered (guarded by dog.mu).
	idx int
}

// newDeadlines returns the slot set for a bounded engine, or nil when no
// operator can run under a positive limit. The decision is O(1): Link
// records the program's smallest operator timeout. The tick follows the
// smaller of the two limits, which can only make it shorter than needed.
func newDeadlines(e *Engine) *deadlines {
	limit := e.cfg.OpTimeout
	if l := e.prog.OpTimeout; l > 0 && (limit <= 0 || l < limit) {
		limit = l
	}
	if limit <= 0 {
		return nil
	}
	d := &deadlines{e: e, tick: min(max(limit/4, minTick), maxTick),
		slots: make([]*deadlineSlot, e.cfg.workers())}
	for proc := range d.slots {
		d.slots[proc] = d.newSlot(proc)
	}
	return d
}

func (d *deadlines) newSlot(proc int) *deadlineSlot {
	return &deadlineSlot{sw: worker{e: d.e, proc: proc}}
}

// callInline runs an attempt of a bounded operator on w's own goroutine
// through w's deadline slot. Nothing here allocates, starts a goroutine,
// arms a timer or blocks: the watchdog owns the deadline.
func (e *Engine) callInline(w *worker, a *activation, n *graph.Node, ins []value.Value, f *Fault, limit time.Duration, attempt int) (value.Value, error) {
	s := e.dl.slots[w.proc]
	s.argv = append(s.argv[:0], ins...)
	s.sw.charge, s.sw.shard, s.sw.pool = 0, value.BlockStats{}, w.pool
	s.owner, s.a, s.n, s.attempt, s.limit = w, a, n, attempt, limit
	deadline := clock() + int64(limit)
	if deadline < 0 {
		deadline = math.MaxInt64 // the limit overflowed the clock: never due
	}
	s.word.Store(deadline)
	v, err := callOperator(&s.sw, n, s.argv, f)
	if !s.word.CompareAndSwap(deadline, slotIdle) {
		return nil, errAbandoned
	}
	// The call's charges flush with the dispatch's (execNode); the blocks it
	// allocated count their Freed wherever their last reference drops.
	w.charge += s.sw.charge
	if s.sw.shard != (value.BlockStats{}) {
		w.shard.Add(s.sw.shard)
	}
	clear(s.argv)
	return v, err
}

// watchdog is the process's one deadline scanner. It starts with the first
// bounded run, parks on cond while no bounded run is registered, and
// otherwise wakes once per tick (or when kicked) to scan the registered runs'
// slots.
type watchdog struct {
	mu      sync.Mutex
	cond    *sync.Cond
	started bool
	runs    []*deadlines
	// period is the tick the watchdog is currently sleeping for; a run that
	// registers with a shorter one kicks it.
	period time.Duration
	kick   chan struct{}
	// wakes counts the watchdog's wake-ups; a parked watchdog does not move it.
	wakes atomic.Int64
}

var dog = watchdog{kick: make(chan struct{}, 1)}

// poke wakes a sleeping watchdog for an immediate scan.
func (w *watchdog) poke() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// register enters d's run into the watchdog's scan set: O(1), and
// allocation-free once the set has grown to the process's concurrency.
func (d *deadlines) register() {
	d.canceled.Store(false)
	dog.mu.Lock()
	if !dog.started {
		dog.started = true
		dog.cond = sync.NewCond(&dog.mu)
		go dog.loop()
	}
	d.idx = len(dog.runs)
	dog.runs = append(dog.runs, d)
	dog.cond.Signal()
	if d.tick < dog.period {
		dog.poke()
	}
	dog.mu.Unlock()
}

// deregister removes d's run once it has joined. It waits out a scan in
// progress, so the watchdog never touches a finished run.
func (d *deadlines) deregister() {
	dog.mu.Lock()
	last := len(dog.runs) - 1
	moved := dog.runs[last]
	dog.runs[d.idx], moved.idx = moved, d.idx
	dog.runs[last] = nil
	dog.runs = dog.runs[:last]
	dog.mu.Unlock()
}

// cancel is the run's cancellation callback's hand-off: abandon every
// pending call of the run now rather than at its deadline.
func (d *deadlines) cancel() {
	d.canceled.Store(true)
	dog.poke()
}

func (w *watchdog) loop() {
	timer := time.NewTimer(maxTick)
	w.mu.Lock()
	for {
		for len(w.runs) == 0 {
			w.cond.Wait()
		}
		w.period = maxTick
		for _, d := range w.runs {
			w.period = min(w.period, d.tick)
		}
		timer.Reset(w.period)
		w.mu.Unlock()
		select {
		case <-timer.C:
		case <-w.kick:
			timer.Stop()
		}
		w.wakes.Add(1)
		now := clock()
		w.mu.Lock()
		for _, d := range w.runs {
			d.scan(now)
		}
	}
}

// scan abandons every pending call of d's run that is past its deadline, or
// every pending call at all once the run is canceled.
func (d *deadlines) scan(now int64) {
	canceled := d.canceled.Load()
	for proc, s := range d.slots {
		deadline := s.word.Load()
		if deadline <= slotIdle || (now < deadline && !canceled) {
			continue
		}
		if !s.word.CompareAndSwap(deadline, slotAbandoned) {
			continue // the call completed meanwhile
		}
		d.slots[proc] = d.newSlot(proc)
		d.settle(s, now < deadline)
	}
}

// settle takes over the worker whose call the watchdog abandoned. It counts
// the timeout and closes the stuck worker's trace slice. The stuck goroutine
// keeps the worker's block pool, which the worker replaces with a fresh one;
// the attempt's blocks are released without recycling, and so is every other
// block the run frees from here on (Engine.abandoned).
//
// A timed-out attempt with a retry left is retried: a fresh goroutine takes
// the stuck one's place (resume). Otherwise settle does what the stuck worker
// would have done on a failed terminal attempt: release the node's inputs
// and held originals, fold the worker's counters with the dispatch's charges,
// fail the run with the same structured error, and leave the run in the
// stuck goroutine's place.
func (d *deadlines) settle(s *deadlineSlot, canceled bool) {
	e, a, n, w := d.e, s.a, s.n, s.owner
	e.abandoned.Store(true)
	var cause error
	if canceled {
		cause = e.runCtx.Err()
	} else {
		atomic.AddInt64(&e.stats.OpTimeouts, 1)
		cause = &opTimeoutError{op: n.Op.Name, limit: s.limit}
	}
	// The stuck goroutine never touches its worker again, and everything it
	// wrote there happened before it published the deadline this CAS read.
	// It keeps the pool it borrowed through the slot, so the worker takes a
	// fresh one; the old pool's hits since the last fold go unpublished.
	w.pool, w.hitsFolded = new(value.BlockPool), 0
	if e.tracer != nil {
		// The stuck worker's track is the watchdog's now: close the bracket
		// the worker left open, as failed.
		e.tracer.record(w.proc, trace.Event{Type: trace.NodeEnd, Ts: w.q.now(), Arg: 1, Act: a.seq, Node: int32(n.ID)})
	}
	if !canceled && s.attempt < e.maxAttempts(n) {
		e.noteRetry(w, a, n, s.attempt)
		go e.resume(w, a, n, s.pristine, s.attempt+1)
		return
	}
	ins := a.inputs(n)
	for _, in := range ins {
		value.Release(in, &e.stats.Blocks)
	}
	clearInputs(ins)
	releaseHeld(s.pristine, &e.stats.Blocks)
	w.n.charged += w.charge
	w.fold()
	e.failAt(a, e.nodeError(a, n, cause, s.attempt))
	e.leave()
}

// resume runs on the goroutine that takes over worker w from one stuck in
// attempt-1 of node n: it rewinds the node's inputs to the pristine
// originals, runs the remaining attempts, and carries on w's task loop,
// leaving the run as a worker goroutine does.
func (e *Engine) resume(w *worker, a *activation, n *graph.Node, pristine []value.Value, attempt int) {
	e.rewind(w, a.inputs(n), pristine)
	err := e.step(w, task{act: a, node: n, from: int32(w.proc)}, attempt)
	if err == nil {
		err = e.loop(w)
	}
	if err != errAbandoned {
		e.leave()
	}
}
