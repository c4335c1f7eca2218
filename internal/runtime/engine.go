// Package runtime executes coordination graphs — the paper's primary
// contribution (§7). The compiler converts functions into templates; the
// run-time system executes template activations, small data structures
// containing enough buffer space to evaluate the template once and a
// pointer back to the (immutable, shareable) template. During evaluation
// the state of the computation is a tree of activations — a parallel
// generalization of the sequential call stack.
//
// Two simple assumptions make operator scheduling cheap:
//
//  1. each operator executes only once, and
//  2. once data is present on an operator's input it stays until the
//     operator executes and is never present again.
//
// In the paper a ready queue with three priority levels (normal operators,
// then non-recursive subgraph expansions, then recursive expansions) keeps
// the number of live activations small by making activations available for
// reuse as early as possible. The simulated machine keeps those levels
// (sim.go). The real executor, at every worker count, is a work-stealing
// scheduler without them: every worker owns one Chase-Lev deque (LIFO pop,
// which runs a node's consumers before older work and so keeps activations
// as few as the levels do, FIFO steal) plus a one-task hand-off slot, where
// the successor a completing node would pop next waits and runs without a
// deque round trip; the run's seeds land on the first worker's deque before
// any worker starts, and idle workers steal, spin briefly, then park on a
// one-token parker woken by notifyOne (see stealqueue.go). Activations
// recycle through per-worker free lists indexed by template ID, backed by
// one per-engine depot that carries activations between workers.
//
// Determinism is enforced through the data contention protocol of §8: all
// shared memory is passed explicitly between operators as reference-counted
// blocks, and an operator may destructively modify a block only when it
// holds the sole reference (the runtime copies otherwise).
//
// One executor core (dispatch.go) runs every mode: the run frame, the task
// loop and the dispatch step are written once, over a scheduler that is the
// pool of work-stealing workers or a deterministic simulated machine with a
// virtual clock and per-processor timing driven by a machine profile.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/value"
)

// Mode selects an executor.
type Mode int

// Executor modes.
const (
	// Real executes on worker goroutines and measures wall-clock time.
	Real Mode = iota
	// Simulated executes deterministically on virtual processors with a
	// virtual clock driven by charged work units and the machine profile.
	Simulated
)

// AffinityPolicy selects the §9.3 locality extension used by the simulated
// scheduler.
type AffinityPolicy int

// Affinity policies.
const (
	// AffinityNone places every ready operator on the earliest-free
	// processor.
	AffinityNone AffinityPolicy = iota
	// AffinityOperator prefers the processor that last executed the same
	// operator, unless choosing it would delay the start.
	AffinityOperator
	// AffinityData prefers the processor whose cache holds the largest
	// share of the operator's input blocks.
	AffinityData
)

// String names the policy for experiment output.
func (a AffinityPolicy) String() string {
	switch a {
	case AffinityNone:
		return "none"
	case AffinityOperator:
		return "operator"
	case AffinityData:
		return "data"
	default:
		return fmt.Sprintf("affinity(%d)", int(a))
	}
}

// Config controls one execution.
type Config struct {
	// Workers is the number of processors (goroutines in Real mode,
	// virtual processors in Simulated mode). Zero selects the machine
	// profile's count, or 1.
	Workers int
	// Mode selects the executor.
	Mode Mode
	// Machine is the profile for Simulated mode; nil selects a Cray Y-MP.
	Machine *machine.Profile
	// Timing enables per-node timing collection (the environment's node
	// timing tool, §5.2): the recorder at node level, which brackets
	// operator executions only (Engine.Timing).
	Timing bool
	// Trace enables structured execution tracing: the recorder at full
	// level, which records typed events (node start/end, steal, park,
	// activation reuse, …) into per-worker buffers, exportable as Chrome
	// trace-event JSON and analyzable for the critical path (Engine.Trace).
	// With neither Timing nor Trace on, it costs one nil check per
	// recording site.
	Trace bool
	// Affinity selects the simulated scheduler's placement policy.
	Affinity AffinityPolicy
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	AffinityHints bool
	// DisablePriorities collapses the simulated machine's three-level ready
	// queue into a single FIFO level — the ablation of §7's priority scheme.
	// It applies to Simulated mode only: Real mode has no levels to collapse.
	DisablePriorities bool
	// MaxOps aborts runs exceeding this many operator executions (a guard
	// against runaway recursion in tests); zero means no limit.
	MaxOps int64
	// OpTimeout bounds every operator execution (per attempt); zero means
	// unbounded. An individual Operator.Timeout overrides it. Timed-out
	// executions count as failed attempts and may retry under Retry. A
	// timeout fires between the limit and the limit plus the deadline
	// watchdog's tick: a quarter of the engine's smallest limit, clamped to
	// [1ms, 100ms].
	OpTimeout time.Duration
	// Retry re-runs failed executions of operators that declare
	// Operator.CanRetry. Destructively-declared arguments are snapshotted
	// before each retryable attempt, so retries see pristine inputs and the
	// run's output stays bit-identical to a fault-free run (§8 makes this
	// sound: an operator only ever mutates blocks it solely owns).
	Retry RetryPolicy
	// Faults arms a deterministic fault-injection plan (see faultinject.go);
	// nil injects nothing. Plans are stateful — use a fresh or Reset plan
	// per run.
	Faults *FaultPlan
}

// RetryPolicy controls deterministic operator retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions allowed per operator
	// node (1 or 0 means no retry).
	MaxAttempts int
	// Backoff is the delay between attempts (constant; deterministic
	// schedules need no jitter).
	Backoff time.Duration
}

// enabled reports whether the policy allows any retry at all.
func (r RetryPolicy) enabled() bool { return r.MaxAttempts > 1 }

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	if c.Machine != nil {
		return c.Machine.Procs
	}
	return 1
}

func (c Config) profile() *machine.Profile {
	if c.Machine != nil {
		return c.Machine
	}
	return machine.CrayYMP()
}

// Engine run states. An engine is a reusable execution context: Run moves
// it idle -> running -> finished, and Reset moves finished back to idle
// without discarding the per-program immutable state or the warmed pools.
const (
	engIdle int32 = iota
	engRunning
	engFinished
)

// resultBox wraps the run result for atomic publication: atomic.Value
// requires a consistent concrete type across stores, and successive runs of
// a reused engine may produce results of different dynamic types.
type resultBox struct{ v value.Value }

// Engine executes one coordination-graph program. The engine's state splits
// two ways: per-program immutable state (the graph and the configuration)
// and per-run mutable state (activations in flight, statistics, the trace,
// fault cursors, the result). Reset clears
// only the latter, so a finished engine returns to runnable without
// reallocating workers, deques, activation free lists, or block free lists
// — the repeated-run fast path RunMany builds on.
type Engine struct {
	prog *graph.Program
	cfg  Config

	stats Stats
	// tracer is the run's recorder (trace.go), nil unless Config.Timing or
	// Config.Trace is on.
	tracer *tracer
	// depot backs the workers' activation free lists (worker.free) in
	// Real runs, indexed like them by template ID: a list that grows
	// past freeCap spills half of itself here, a worker leaving the run
	// stows all of its lists here, and a list that runs dry refills from
	// here before its worker allocates. Activations migrate between workers
	// — one recycles on the worker that ran its last node — and the depot
	// carries them back to the workers that acquire. It persists across
	// runs, like the lists.
	depotMu sync.Mutex
	depot   [][]*activation
	// state is the engine's run-lifecycle state (engIdle/engRunning/
	// engFinished); gen counts completed runs — the run-generation counter
	// that replaced the one-shot started flag.
	state   atomic.Int32
	gen     atomic.Int64
	stopped atomic.Bool
	// abandoned is set once the run gives up an operator call it cannot
	// preempt (a timeout or a cancellation). The stuck goroutine may still
	// read the blocks it was given, and any worker may free one of them, so
	// from then on the run recycles no freed payload. Reset clears it: by
	// then each of those blocks is dead or held by the host, and neither
	// recycles.
	abandoned atomic.Bool
	// failMu guards the first-failure record below; the first failure wins
	// and later errors are dropped (sync.Once cannot be reused across runs,
	// a mutex plus a per-run flag can).
	failMu    sync.Mutex
	failedRun bool
	runErr    error
	// failedActs are the activations whose node was executing when an error
	// was recorded — every worker's, not only the first failure's: the failing
	// node was already taken off the queue, so nothing else reaches its
	// activation's buffered inputs. rootAct is the main activation. Both seed
	// the error-path teardown sweep and are read only after the run quiesces.
	failedActs []*activation
	rootAct    *activation

	// workers holds one worker per processor plus a final slot for the boot
	// worker (proc -1), allocated in New and kept across Reset so that their
	// scratch and block pools stay warm; run and runWorkers rebind them to
	// each run.
	workers []worker

	result atomic.Value // resultBox

	maxOps int64
	// opsClaimed is the run's node count as a budget sees it: workers count
	// dispatches in their own counters, and only a bounded engine (maxOps > 0)
	// also claims them here, so that FailBudget fires at the exact node. Every
	// worker adds to it on every dispatch, so the pads keep it off the cache
	// lines of the fields every dispatch reads (maxOps, …).
	_          [64]byte
	opsClaimed atomic.Int64
	_          [56]byte

	// sched is the real executor's work-stealing scheduler, created on the
	// first Real run and reused (reopened) by every run after it so
	// a reused engine never reallocates deques or parkers.
	sched *stealScheduler
	// join is the rendezvous of a run's spawned goroutines: one per worker
	// of a multi-worker run, or the one loop goroutine of a bounded
	// one-worker or simulated run. The watchdog calls Done for a goroutine
	// it abandons.
	join sync.WaitGroup
	// canceling counts the run's cancellation callback (context.AfterFunc)
	// while it may still run, so that runWorkers can wait for one that fired.
	canceling sync.WaitGroup
	// dl, present only on a bounded engine (Config.OpTimeout or some
	// Operator.Timeout positive), holds the per-worker deadline slots
	// (deadline.go). Allocated in New and kept across Reset.
	dl *deadlines

	// runCtx/ctxDone carry the RunContext cancellation signal. ctxDone is
	// nil for context.Background, keeping the disabled-path cost of the
	// worker-loop poll to a single nil check.
	runCtx  context.Context
	ctxDone <-chan struct{}
}

// New prepares an engine for prog under cfg. The same program can be run by
// many engines; templates are immutable. prog must be numbered (graph.Link
// numbers a compiled program; see graph.Number): the activation free lists
// are indexed by template ID.
func New(prog *graph.Program, cfg Config) *Engine {
	if prog.Main != nil && prog.Main.ID >= prog.NumTemplates {
		panic("runtime: program templates are not numbered; link the program (graph.Link) or number it (graph.Number)")
	}
	e := &Engine{prog: prog, cfg: cfg, maxOps: cfg.MaxOps,
		depot: make([][]*activation, prog.NumTemplates)}
	e.workers = make([]worker, cfg.workers()+1)
	for i := range e.workers {
		w := &e.workers[i]
		w.e, w.pool = e, new(value.BlockPool)
		w.free = make([][]*activation, prog.NumTemplates)
	}
	// The boot worker runs before any worker starts, so it shares worker 0's
	// free lists: the outer slice never grows, so both headers address the
	// same lists.
	e.workers[len(e.workers)-1].free = e.workers[0].free
	e.tracer = newTracer(cfg)
	e.dl = newDeadlines(e)
	return e
}

// worker binds processor proc's worker (-1 selects the boot worker's slot)
// to the run about to start, which q schedules.
func (e *Engine) worker(proc int, q scheduler) *worker {
	i := proc
	if proc < 0 {
		i = len(e.workers) - 1
	}
	w := &e.workers[i]
	w.proc, w.q, w.tr = proc, q, e.tracer.events()
	_, w.pooled = q.(*stealScheduler)
	return w
}

// ErrNoMain is returned when the program has no main function.
var ErrNoMain = errors.New("delirium: program has no main function")

// ErrAlreadyRun is returned when Run is invoked on an engine whose previous
// run finished and was not Reset.
var ErrAlreadyRun = errors.New("delirium: engine already ran; Reset it (or create a new engine) per execution")

// ErrEngineRunning is returned by Reset (and a concurrent Run) while an
// execution is still in flight.
var ErrEngineRunning = errors.New("delirium: engine is running")

// Run executes the program's main function with the given arguments and
// returns its value. A run that passes validation consumes the engine until
// Reset is called, so a call rejected for a missing main or an
// argument-count mismatch can be corrected and retried.
func (e *Engine) Run(args ...value.Value) (value.Value, error) {
	return e.RunContext(context.Background(), args...)
}

// Runs returns the engine's run-generation counter: the number of completed
// executions (successful or failed) this engine has performed.
func (e *Engine) Runs() int64 { return e.gen.Load() }

// Reset returns a finished engine to runnable for the next execution of the
// same program. Per-run mutable state — statistics, the timing log and
// trace, the failure record, the result, fault-plan cursors — is cleared;
// per-program immutable state and every warmed allocation survive: the
// activation free lists and their depot, the per-worker block free lists,
// the work-stealing scheduler's deques and parkers. Reset on a fresh or
// validation-rejected engine is a no-op; Reset while a run is in flight
// returns ErrEngineRunning.
func (e *Engine) Reset() error {
	switch e.state.Load() {
	case engRunning:
		return ErrEngineRunning
	case engIdle:
		return nil
	}
	e.stats.reset()
	e.tracer = e.tracer.renew(e.cfg)
	e.failMu.Lock()
	e.failedRun = false
	e.runErr = nil
	e.failedActs = nil
	e.failMu.Unlock()
	e.rootAct = nil
	e.stopped.Store(false)
	e.abandoned.Store(false)
	e.result.Store(resultBox{})
	e.runCtx = nil
	e.ctxDone = nil
	// A stateful fault plan keeps execution cursors; rewinding them here
	// makes a seeded fault suite behave identically on every run of a
	// reused engine.
	if e.cfg.Faults != nil {
		e.cfg.Faults.Reset()
	}
	e.state.Store(engIdle)
	return nil
}

// SetMaxOps overrides the engine's operator budget for subsequent runs:
// n > 0 bounds each run to n operator executions (exceeding it fails the
// run with FailBudget), n == 0 removes the bound. The server uses this to
// apply per-request budgets to pooled engines compiled with a default.
// Calling it while a run is in flight returns ErrEngineRunning.
func (e *Engine) SetMaxOps(n int64) error {
	if e.state.Load() == engRunning {
		return ErrEngineRunning
	}
	e.maxOps = n
	return nil
}

// RunContext is Run under a context: cancellation (or the context deadline)
// stops the run at the next operator boundary, drains the schedulers, and
// returns a RunError with Kind FailCanceled that unwraps to the context's
// error. A nil ctx is context.Background. Cancellation cannot preempt an
// operator already inside embedded Go code — bound that with
// Config.OpTimeout or Operator.Timeout.
func (e *Engine) RunContext(ctx context.Context, args ...value.Value) (value.Value, error) {
	main := e.prog.Main
	if main == nil {
		return nil, ErrNoMain
	}
	if len(args) != main.NParams {
		return nil, fmt.Errorf("delirium: main expects %d arguments, got %d", main.NParams, len(args))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A context that is already dead rejects the run without consuming the
	// engine, like any other validation failure.
	if err := ctx.Err(); err != nil {
		return nil, &RunError{Kind: FailCanceled, Err: err}
	}
	if !e.state.CompareAndSwap(engIdle, engRunning) {
		if e.state.Load() == engRunning {
			return nil, ErrEngineRunning
		}
		return nil, ErrAlreadyRun
	}
	e.runCtx = ctx
	if ctx.Done() != nil {
		e.ctxDone = ctx.Done()
	}
	return e.run(args)
}

// RunResult is one invocation's outcome in a RunMany batch. Each invocation
// is an independent run: Err, when non-nil, is the same *RunError (or
// validation error) the equivalent single Run would have returned, and a
// failure leaves the other invocations untouched.
type RunResult struct {
	Value value.Value
	Err   error
}

// RunMany executes the program once per argument list in batch, reusing
// this engine for every invocation: it Resets the engine between
// invocations, so activation and block free lists and the work-stealing
// scheduler warm up once and serve the whole batch.
//
// Every invocation keeps single-run semantics: it is individually
// deterministic (bit-identical to a fresh-engine run of the same arguments),
// individually cancellable (a dead ctx fails the remaining invocations with
// FailCanceled without running them), and individually retryable and
// fault-injected (Config.Retry applies per run; a stateful Config.Faults
// plan is rewound before each invocation, so every run sees the same fault
// schedule). A failed invocation records its error in its RunResult slot and
// the batch continues.
//
// The returned error reports engine-level misuse only (an engine already
// running, or a program without main); per-invocation failures never abort
// the batch. After RunMany returns, the engine is left in its final run's
// finished state — Stats, Timing, and Trace describe the last invocation —
// and Reset returns it to runnable as usual.
func (e *Engine) RunMany(ctx context.Context, batch [][]value.Value) ([]RunResult, error) {
	if e.prog.Main == nil {
		return nil, ErrNoMain
	}
	// Reset refuses a running engine and is a no-op on an idle one (fresh,
	// or left idle by a rejected invocation).
	if err := e.Reset(); err != nil {
		return nil, err
	}
	results := make([]RunResult, len(batch))
	for i, args := range batch {
		if i > 0 {
			if err := e.Reset(); err != nil {
				return results, err
			}
		}
		v, err := e.RunContext(ctx, args...)
		results[i] = RunResult{Value: v, Err: err}
	}
	return results, nil
}

// Stats returns execution statistics; call after Run returns.
func (e *Engine) Stats() *Stats { return &e.stats }

// Timing returns the node timing log, derived from the recorder's node
// brackets, or nil when timing was disabled. Call after Run returns.
func (e *Engine) Timing() *trace.TimingLog {
	if !e.cfg.Timing {
		return nil
	}
	return e.tracer.snapshot().Timing()
}

// Trace returns the recorded execution trace, or nil when tracing was
// disabled. Call after Run returns.
func (e *Engine) Trace() *trace.Trace {
	if !e.cfg.Trace {
		return nil
	}
	return e.tracer.snapshot()
}

// failAt records the first error and stops the run; later errors are
// dropped: the first failure wins. The activation each one occurred in is
// kept for the error-path teardown sweep.
func (e *Engine) failAt(a *activation, err error) {
	e.failMu.Lock()
	if !e.failedRun {
		e.failedRun = true
		e.runErr = err
		e.stopped.Store(true)
	}
	if a != nil {
		e.failedActs = append(e.failedActs, a)
	}
	e.failMu.Unlock()
}

// finish records the final result.
func (e *Engine) finish(v value.Value) {
	if v == nil {
		v = value.Null{}
	}
	e.result.Store(resultBox{v})
	e.stopped.Store(true)
}

// freeCap bounds one worker's free list for one template in a Real run: a
// release past it spills the older half of the list to the engine's
// depot. Activations a worker holds are out of its peers' reach, so the cap
// is small.
const freeCap = 8

// acquire gets a recycled or fresh activation for t from w's free list,
// refilling the list from the depot when it is empty. When tracing is on the
// activation is stamped with a fresh instance id so every node execution has
// a unique (activation, node) identity in the trace. A template the engine
// did not number (a closure from another program, whose ID may collide with
// one of ours) never receives another template's activation.
//
// In a Real run the first run sizes the pool to what it needed, and stock
// adds what the peers can hold out of reach before the second.
func (e *Engine) acquire(w *worker, t *graph.Template) *activation {
	var a *activation
	if id := t.ID; id < len(w.free) {
		if len(w.free[id]) == 0 && w.pooled {
			e.refill(w, id)
		}
		if list := w.free[id]; len(list) > 0 && list[len(list)-1].tmpl == t {
			a = list[len(list)-1]
			list[len(list)-1] = nil
			w.free[id] = list[:len(list)-1]
		}
	}
	if a != nil {
		w.n.actsReused++
		a.reset()
		if w.tr != nil {
			a.seq = w.tr.nextAct()
			w.tr.record(w.proc, trace.Event{Type: trace.ActReuse, Ts: w.tr.now(), Act: a.seq, Tmpl: t.Name})
		}
		return a
	}
	w.n.actsAlloc++
	a = newActivation(t)

	if w.tr != nil {
		a.seq = w.tr.nextAct()
		w.tr.record(w.proc, trace.Event{Type: trace.ActAlloc, Ts: w.tr.now(), Act: a.seq, Tmpl: t.Name})
	}
	return a
}

// release returns a finished activation to w's free list. Only a worker of a
// Real run spills: the simulated machine's one worker holds everything it
// frees, in the order it freed them.
func (e *Engine) release(w *worker, a *activation) {
	id := a.tmpl.ID
	if id >= len(w.free) {
		return
	}
	list := append(w.free[id], a)
	if len(list) > freeCap && w.pooled {
		half := len(list) / 2
		e.depotMu.Lock()
		e.depot[id] = append(e.depot[id], list[:half]...)
		e.depotMu.Unlock()
		n := copy(list, list[half:])
		clear(list[n:])
		list = list[:n]
	}
	w.free[id] = list
}

// stock adds, for every template the first run used, as many activations
// to the depot as the worker's peers can hold on their lists (a full list
// each), so that spares held out of a worker's reach do not make warm runs
// allocate: once stocked, a miss needs more activations live at once than
// the first run had. The boot worker w calls it before the second run seeds,
// when every free activation is in the depot (stow) and no other worker
// runs.
func (e *Engine) stock(w *worker) {
	headroom := (len(e.workers) - 2) * freeCap
	e.depotMu.Lock()
	for id, d := range e.depot {
		if len(d) == 0 {
			continue
		}
		for range headroom {
			d = append(d, newActivation(d[0].tmpl))
		}
		e.depot[id] = d
		w.n.actsAlloc += int64(headroom)
	}
	e.depotMu.Unlock()
}

// stow moves every activation on w's free lists to the depot, so that a
// run starts with none held out of reach on one worker.
func (e *Engine) stow(w *worker) {
	e.depotMu.Lock()
	for id, list := range w.free {
		if len(list) > 0 {
			e.depot[id] = append(e.depot[id], list...)
			clear(list)
			w.free[id] = list[:0]
		}
	}
	e.depotMu.Unlock()
}

// refill moves up to half a list's worth of template id's activations from
// the depot to w's empty free list.
func (e *Engine) refill(w *worker, id int) {
	e.depotMu.Lock()
	d := e.depot[id]
	keep := len(d) - min(len(d), freeCap/2)
	w.free[id] = append(w.free[id], d[keep:]...)
	clear(d[keep:])
	e.depot[id] = d[:keep]
	e.depotMu.Unlock()
}
