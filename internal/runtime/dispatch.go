package runtime

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// This file is the executor core: the run frame, the task loop and the
// dispatch step, each written once. Everything that differs between a
// one-worker run, a pool of work-stealing workers and the simulated machine
// sits behind the scheduler interface below.

// task is one runnable node of one activation, tagged with the worker that
// pushed it (from; -1 for the boot worker's seeds). The tag feeds the timing
// log's stolen mark; it never influences what executes. The work-stealing
// scheduler keeps each task in its activation's slot for the node
// (activation.tasks); the serial and simulated queues hold them by value.
type task struct {
	act  *activation
	node *graph.Node
	from int32
}

// scheduler is the seam between the executor core and the three ready-queue
// disciplines: the serial FIFO (queue.go), the work-stealing pool
// (stealqueue.go) and the virtual-time list scheduler (sim.go). All three
// honor the §7 priority order; they differ only in what is behind these
// methods.
type scheduler interface {
	// push makes node n of a runnable. w is the worker whose execution (or
	// seeding) released it; the scheduler stamps the task's provenance.
	push(w *worker, a *activation, n *graph.Node)
	// next hands w its next task — popping, stealing and parking, or
	// advancing virtual time and placing the task on a virtual processor
	// (w.proc) — and reports false once the run is over: quiescence, or the
	// scheduler was closed.
	next(w *worker) (task, bool)
	// retire accounts a task that executed without error.
	retire(w *worker, t task)
	// now reads the run clock: nanoseconds since the run started, or the
	// virtual time at which the executing node started (the simulated
	// machine prices where it ends: simScheduler.end).
	now() int64
	// drain empties the queue of a stopped run, returning the abandoned
	// tasks so the error-path teardown can sweep their activations.
	drain() []task
}

// wallClock is the Real-mode run clock shared by the serial queue and the
// work-stealing scheduler.
type wallClock struct{ start time.Time }

func (c *wallClock) now() int64 { return int64(time.Since(c.start)) }

// span is one observed node execution in flight: the activation stamp taken
// before the body runs (the last node of an activation recycles it, and a
// pool reuse — even inside this very execution, via a recursive expansion —
// restamps seq) and the clock at its start.
type span struct {
	act, t0 int64
}

// begin opens the observer bracket around task t's node. Callers check that
// an observer is on.
func (w *worker) begin(t task) span {
	a, n := t.act, t.node
	sp := span{act: a.seq, t0: w.q.now()}
	if w.tr != nil {
		w.tr.record(w.proc, TraceEvent{Type: TraceNodeStart, Ts: sp.t0,
			Act: sp.act, Node: int32(n.ID), Name: traceLabel(n), Tmpl: a.tmpl.Name})
	}
	return sp
}

// end closes the bracket begin opened: the trace slice always (a failed
// node's too), the timing entry only for an operator that succeeded.
func (w *worker) end(sp span, t task, err error) {
	n := t.node
	t1 := w.q.now()
	if w.e.cfg.Mode == Simulated {
		t1 = w.q.(*simScheduler).end(w)
	}
	if w.tr != nil {
		w.tr.record(w.proc, TraceEvent{Type: TraceNodeEnd, Ts: t1, Act: sp.act, Node: int32(n.ID)})
	}
	if err == nil && w.e.timing != nil && n.Kind == graph.OpNode {
		w.e.timing.addShard(w.proc, TimingEntry{
			Name:     n.Name,
			Template: t.act.tmpl.Name,
			Proc:     w.proc,
			Start:    sp.t0,
			Ticks:    t1 - sp.t0,
			Stolen:   t.from >= 0 && t.from != int32(w.proc),
		})
	}
}

// loop is the one task loop, and its body the one dispatch step: take a
// task, bracket it for the observers, execute it, retire it. The caller's
// goroutine runs the loop for unbounded serial and simulated runs, one
// spawned goroutine for bounded ones, one per worker for multi-worker ones,
// until the scheduler reports the run over or a node fails. It returns errAbandoned, having touched nothing after the call, when
// the watchdog took over the operator call this goroutine was stuck in, and
// nil otherwise. On its way out a worker folds its counters into Stats; the
// watchdog folds those of a goroutine it abandoned.
func (e *Engine) loop(w *worker) error {
	q := w.q
	for {
		t, ok := q.next(w)
		if !ok {
			w.fold()
			return nil
		}
		observed := e.timing != nil || w.tr != nil
		var sp span
		if observed {
			sp = w.begin(t)
		}
		err := e.execNode(w, t)
		if err == errAbandoned {
			return err
		}
		if observed {
			w.end(sp, t, err)
		}
		if err != nil {
			w.fold()
			e.failAt(t.act, err)
			return nil
		}
		q.retire(w, t)
	}
}

// run is the one run frame: seed the root activation, run the loop (inline,
// on one goroutine for a bounded engine, or on one goroutine per worker), and
// settle the outcome. A bounded engine's run is registered with the deadline
// watchdog from seeding to join.
//
// Termination: the run ends at quiescence (no scheduled work left), which
// is reached after the final result is produced and any straggling
// side-effecting operators have drained. If quiescence arrives without a
// result, the coordination graph deadlocked (a compiler bug, since sema
// rejects circular data dependencies) and the run fails. Errors abort
// immediately, abandoning queued work.
func (e *Engine) run(args []value.Value) (value.Value, error) {
	nw := e.cfg.workers()
	pooled := e.cfg.Mode == Real && nw > 1
	var q scheduler
	proc := 0
	switch {
	case e.cfg.Mode == Simulated:
		q = newSimScheduler(e, nw)
	case pooled:
		if e.sched == nil {
			e.sched = newStealScheduler(nw, &e.stats, e.tracer)
		} else {
			e.sched.reopen(e.tracer)
		}
		q = e.sched
		// The boot worker seeds from the caller's goroutine before any
		// worker goroutine exists; proc -1 routes its pushes onto worker
		// 0's deques and its trace events to the external (seed) track.
		proc = -1
	default:
		q = &serialQueue{wallClock: wallClock{time.Now()}}
	}
	if e.tracer != nil {
		e.tracer.now = q.now
	}
	e.opsClaimed.Store(0)
	w := e.worker(proc, q)
	if pooled && e.gen.Load() == 1 {
		e.stock(w)
	}
	root := e.acquire(w, e.prog.Main)
	e.rootAct = root
	w.noteLive(1, int64(e.prog.Main.ActivationWords()))
	e.initActivation(w, root, args)
	// Publish the counters seeding moved before any worker runs.
	w.fold()
	if e.dl != nil {
		e.dl.register()
	}
	switch {
	case pooled:
		e.runWorkers(q, nw)
	case e.dl != nil:
		e.runWorkers(q, 1)
	default:
		e.loop(w)
	}
	if e.dl != nil {
		e.dl.deregister()
	}
	if !e.stopped.Load() {
		// Quiescence without a result. The root is still live (it never
		// produced one), so its path names the stuck entry point.
		e.failAt(root, errDeadlock(activationPath(root)))
	}
	if e.cfg.Mode == Real {
		e.stats.RealNanos = q.now()
	}
	if e.runErr != nil {
		e.cleanupAfterError(q.drain())
	}
	// The run has quiesced, every worker's counters are folded into Stats,
	// and the engine advances to engFinished, bumping the run generation.
	e.gen.Add(1)
	e.state.Store(engFinished)
	if e.runErr != nil {
		return nil, e.runErr
	}
	box, _ := e.result.Load().(resultBox)
	if box.v == nil {
		return nil, fmt.Errorf("delirium: program produced no result")
	}
	return box.v, nil
}
