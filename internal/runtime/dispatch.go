package runtime

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/value"
)

// This file is the executor core: the run frame, the task loop and the
// dispatch step, each written once. Everything that differs between the
// work-stealing workers of a Real run and the simulated machine sits behind
// the scheduler interface below.

// task is one runnable node of one activation, tagged with the worker that
// pushed it (from; -1 for the boot worker's seeds). The node-start event
// carries the tag, from which the timing log marks a stolen task; it never
// influences what executes. The work-stealing scheduler keeps each task in
// its activation's slot for the node (activation.tasks); the simulated
// machine holds them by value.
type task struct {
	act  *activation
	node *graph.Node
	from int32
}

// scheduler is the seam between the executor core and its two ready-queue
// disciplines: the work-stealing pool of every Real run (stealqueue.go) and
// the virtual-time list scheduler (sim.go), which alone keeps §7's priority
// levels. They differ only in what is behind these methods.
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

// wallClock is the Real-mode run clock.
type wallClock struct{ start time.Time }

func (c *wallClock) now() int64 { return int64(time.Since(c.start)) }

// span is one observed node execution in flight: the activation stamp taken
// before the body runs (the last node of an activation recycles it, and a
// pool reuse — even inside this very execution, via a recursive expansion —
// restamps seq) and the clock at its start.
type span struct {
	act, t0 int64
}

// begin opens the recorder's bracket around task t's node. Callers check
// that the recorder brackets the node.
func (w *worker) begin(t task) span {
	a, n := t.act, t.node
	sp := span{act: a.seq, t0: w.q.now()}
	w.e.tracer.record(w.proc, trace.Event{Type: trace.NodeStart, Op: n.Kind == graph.OpNode,
		Ts: sp.t0, Arg: int64(t.from), Act: sp.act, Node: int32(n.ID), Name: traceLabel(n), Tmpl: a.tmpl.Name})
	return sp
}

// end closes the bracket begin opened, marking a failed node's.
func (w *worker) end(sp span, t task, err error) {
	t1 := w.q.now()
	if w.e.cfg.Mode == Simulated {
		t1 = w.q.(*simScheduler).end(w)
	}
	var failed int64
	if err != nil {
		failed = 1
	}
	w.e.tracer.record(w.proc, trace.Event{Type: trace.NodeEnd, Ts: t1, Arg: failed, Act: sp.act, Node: int32(t.node.ID)})
}

// loop is the one task loop: take a task and run the dispatch step on it.
// The caller's goroutine runs the loop for unbounded one-worker and
// simulated runs, one spawned goroutine for bounded ones, one per worker for
// multi-worker ones, until the scheduler reports the run over or a node
// fails. It returns errAbandoned, having touched nothing after the call,
// when the watchdog took over the operator call this goroutine was stuck in,
// the error of a node that failed, and nil otherwise. On its way out a
// worker folds its counters into Stats; the watchdog folds those of a
// goroutine it abandoned.
func (e *Engine) loop(w *worker) error {
	for {
		t, ok := w.q.next(w)
		if !ok {
			w.fold()
			return nil
		}
		if err := e.step(w, t, 1); err != nil {
			return err
		}
	}
}

// step is the one dispatch step: bracket task t for the recorder, execute
// it from operator attempt number attempt, retire it. A failed node records
// the run's failure and folds the worker; its error, like errAbandoned, ends
// the worker's loop.
func (e *Engine) step(w *worker, t task, attempt int) error {
	observed := e.tracer.brackets(t.node)
	var sp span
	if observed {
		sp = w.begin(t)
	}
	err := e.execNode(w, t, attempt)
	if err == errAbandoned {
		return err
	}
	if observed {
		w.end(sp, t, err)
	}
	if err != nil {
		w.fold()
		e.failAt(t.act, err)
		return err
	}
	w.q.retire(w, t)
	return nil
}

// leave is how a spawned run goroutine exits: a worker leaves the loop only
// when the run is over — the scheduler closed, or its own node failed — so
// leaving closes the scheduler, which wakes every parked peer on the error
// path, and then leaves the run's join.
func (e *Engine) leave() {
	if e.sched != nil {
		e.sched.close()
	}
	e.join.Done()
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
	sim := e.cfg.Mode == Simulated
	var q scheduler
	// The boot worker seeds from the caller's goroutine before any worker
	// runs. In a Real run proc -1 routes its pushes onto worker 0's deque
	// and its trace events to the external (seed) track; the simulated
	// machine places every task itself, so its one worker seeds as proc 0.
	proc := -1
	if sim {
		q, proc = newSimScheduler(e, nw), 0
	} else {
		if e.sched == nil {
			e.sched = newStealScheduler(nw, &e.stats, e.tracer.events())
		} else {
			e.sched.reopen(e.tracer.events())
		}
		q = e.sched
	}
	if e.tracer != nil {
		e.tracer.now = q.now
	}
	e.opsClaimed.Store(0)
	w := e.worker(proc, q)
	if !sim && e.gen.Load() == 1 {
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
	case !sim && e.sched.outstanding.Load() == 0:
		// The whole program evaluated during seeding (constant main) or
		// nothing is runnable at all: no task will ever retire, so nothing
		// would close the scheduler.
	case e.dl == nil && (sim || nw == 1):
		e.loop(e.worker(0, q))
	case sim:
		e.runWorkers(q, 1)
	default:
		e.runWorkers(q, nw)
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
