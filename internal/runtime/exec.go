package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/value"
)

// worker is the execution context of one processor: its identity, the
// per-execution charge accumulator operators write through operator.Context,
// and the scheduler it takes tasks from and pushes newly runnable nodes to.
type worker struct {
	e    *Engine
	proc int

	// q is the run's scheduler (nil on a deadline slot's worker, which only
	// ever runs an operator body).
	q scheduler
	// tr, when non-nil, receives the full-level trace events of this
	// worker's hot path (deliveries, tail calls, block copies): e.tracer at
	// full level, nil otherwise, so every other case is a single nil check.
	tr *tracer

	// pool is the worker's block free list: a block freed on this worker
	// hands it its payload, and the worker's operators allocate from it. It
	// survives Reset; hitsFolded is its hit count fold already published. A
	// deadline slot's worker borrows its owner's pool for one call; the
	// watchdog gives an owner whose call it abandons a fresh pool, so a
	// stuck goroutine never touches a pool a live worker uses.
	pool       *value.BlockPool
	hitsFolded int64

	// charge accumulates Context.Charge units of the node being executed.
	charge int64
	// localWords/remoteWords price the executed node's block traffic for
	// the simulated machine's memory model (copied words count as local
	// writes).
	localWords, remoteWords int64

	// ready is scratch space complete() uses to batch the nodes a completion
	// made runnable, so that they are pushed after every delivery.
	ready []*graph.Node

	// n holds this worker's share of the run's execution counters: plain
	// adds on the hot path, published into Stats once by fold.
	n workerCounters
	// shard is this worker's share of Stats.Blocks: every allocation,
	// retain, release, copy and free the worker makes counts here, on a
	// cache line no other worker writes, and fold adds it to Stats.Blocks.
	shard value.BlockStats

	// free is the worker's activation free lists, indexed by template ID
	// (Engine.acquire, Engine.release). They survive Reset. The boot worker
	// shares worker 0's.
	free [][]*activation
	// pooled is set while the worker runs in a Real run. Its free lists
	// then spill to and refill from the engine's depot, and its
	// live-activation gauge changes collect in live/liveWords, published by
	// foldLive at the 64-dispatch poll and at loop exit.
	pooled          bool
	live, liveWords int64

	// Scratch reused across node executions, so a warm dispatch allocates
	// nothing of its own: args holds an expansion's argument vector while
	// expand seeds the child, and the settle* slices are settleRefs' block
	// lists. The worker survives Reset, and its scratch with it.
	args         []value.Value
	settleIns    []*value.Block
	settleRes    []*value.Block
	settleClaims []bool

	// Engine.workers lays workers out side by side; the pad keeps one
	// worker's per-dispatch writes off its neighbour's cache line.
	_ [64]byte
}

// workerCounters are the Stats counters a worker bumps on every dispatch.
// No other goroutine reads them while the worker runs: the boot worker folds
// them after seeding, a worker as it leaves loop, and the watchdog folds
// those of a worker it abandoned.
type workerCounters struct {
	ops, operators, charged, tailCalls int64
	actsAlloc, actsReused              int64
}

// fold adds the worker's counters and its block-accounting shard into the
// engine's Stats and zeroes them. It also publishes the block pool's hits
// since the last fold: the pool, and its cumulative hit count, survive
// Reset. A pooled worker publishes its live-activation changes and stows its
// free activations in the depot.
func (w *worker) fold() {
	st, c := &w.e.stats, &w.n
	atomic.AddInt64(&st.OpsExecuted, c.ops)
	atomic.AddInt64(&st.OperatorsRun, c.operators)
	atomic.AddInt64(&st.ChargedUnits, c.charged)
	atomic.AddInt64(&st.TailCalls, c.tailCalls)
	atomic.AddInt64(&st.ActivationsAllocated, c.actsAlloc)
	atomic.AddInt64(&st.ActivationsReused, c.actsReused)
	st.Blocks.Add(w.shard)
	w.shard = value.BlockStats{}
	hits := w.pool.Hits()
	atomic.AddInt64(&st.PooledAllocs, hits-w.hitsFolded)
	w.hitsFolded = hits
	*c = workerCounters{}
	if w.pooled {
		w.foldLive()
		w.e.stow(w)
	}
}

// noteLive moves the live-activation gauges by delta activations and words
// words. Simulated runs update Stats at once, so their peaks are exact. A
// pooled worker collects the changes and publishes them at foldLive, so its
// peaks are sampled there; a release that would drive a collected change
// below zero is published at once instead, which keeps every sample at or
// below the true live count.
func (w *worker) noteLive(delta, words int64) {
	if !w.pooled || w.live+delta < 0 || w.liveWords+words < 0 {
		w.e.stats.noteLive(delta, words)
		return
	}
	w.live += delta
	w.liveWords += words
}

// foldLive publishes the live-activation changes noteLive collected.
func (w *worker) foldLive() {
	if w.live != 0 || w.liveWords != 0 {
		w.e.stats.noteLive(w.live, w.liveWords)
		w.live, w.liveWords = 0, 0
	}
}

// argBuf returns the worker's argument vector, empty with room for n values.
func (w *worker) argBuf(n int) []value.Value {
	if cap(w.args) < n {
		w.args = make([]value.Value, 0, n)
	}
	return w.args[:0]
}

// Charge implements operator.Context. It only bumps the worker-local
// accumulator of the dispatch being executed; execNode adds the dispatch's
// total to the worker's run counters.
func (w *worker) Charge(units int64) {
	w.charge += units
}

// BlockStats implements operator.Context: the worker's shard.
func (w *worker) BlockStats() *value.BlockStats { return &w.shard }

// Processor implements operator.Context.
func (w *worker) Processor() int { return w.proc }

// Pool implements operator.Context: the worker's block free list, or the
// one a deadline slot's worker borrows from its owner for the call.
func (w *worker) Pool() *value.BlockPool { return w.pool }

// traceLabel names a node for trace output: the operator or callee name, or
// the node kind for unnamed plumbing nodes.
func traceLabel(n *graph.Node) string {
	if n.Name != "" {
		return n.Name
	}
	return n.Kind.String()
}

// nodeError wraps a node failure in the structured RunError: position,
// node, enclosing template, activation path, and attempt count, with the
// failure kind recovered from the cause (panic, timeout, cancellation).
func (e *Engine) nodeError(a *activation, n *graph.Node, err error, attempts int) error {
	re := &RunError{
		Kind:     FailError,
		Op:       traceLabel(n),
		Template: a.tmpl.Name,
		Pos:      n.Pos.String(),
		Path:     activationPath(a),
		Attempts: attempts,
		Err:      err,
	}
	switch x := err.(type) {
	case *panicError:
		re.Kind = FailPanic
		re.Stack = x.stack
	case *opTimeoutError:
		re.Kind = FailTimeout
	default:
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			re.Kind = FailCanceled
		}
	}
	return re
}

// failNode is the common node error exit: the node consumed nothing, so
// every input reference is released and the slots cleared before the
// structured error is built.
func (e *Engine) failNode(a *activation, n *graph.Node, ins []value.Value, err error) error {
	for _, in := range ins {
		value.Release(in, &e.stats.Blocks)
	}
	clearInputs(ins)
	return e.nodeError(a, n, err, 1)
}

// clearInputs nils consumed input slots (ins aliases the activation
// buffer). Every execution path clears its inputs before complete/expand —
// which may retire and recycle the activation — so the error-path teardown
// sweep only ever sees references that are still owned by a waiting node.
func clearInputs(ins []value.Value) {
	for i := range ins {
		ins[i] = nil
	}
}

// callOperator invokes an operator, converting a panic in the embedded Go
// code into an ordinary execution error carrying the captured stack.
// Operators are user code; a bug in one sub-computation must fail the
// program deterministically rather than crash the whole engine and its
// sibling workers. An armed fault fires first — before the operator body
// has touched anything — which is what makes an injected failure exactly
// re-runnable.
func callOperator(w *worker, n *graph.Node, ins []value.Value, f *Fault) (result value.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	if f != nil {
		if ferr := f.fire(); ferr != nil {
			return nil, ferr
		}
	}
	return n.Op.Fn(w, ins)
}

// invokeOp dispatches attempt number attempt: it draws the next armed fault
// for this operator (if a plan is configured) and, when a timeout bound
// applies, calls through the worker's deadline slot. A per-operator Timeout
// overrides Config.OpTimeout; a negative one disables the bound entirely.
func (e *Engine) invokeOp(w *worker, a *activation, n *graph.Node, ins []value.Value, attempt int) (value.Value, error) {
	var f *Fault
	if e.cfg.Faults != nil {
		if f = e.cfg.Faults.next(n.Op.Name); f != nil {
			atomic.AddInt64(&e.stats.FaultsInjected, 1)
			if w.tr != nil {
				w.tr.record(w.proc, trace.Event{Type: trace.Fault, Ts: w.tr.now(),
					Act: a.seq, Node: int32(n.ID), Name: n.Name, Arg: f.Execution})
			}
		}
	}
	limit := e.cfg.OpTimeout
	if n.Op.Timeout != 0 {
		limit = n.Op.Timeout
	}
	if limit <= 0 {
		return callOperator(w, n, ins, f)
	}
	return e.callInline(w, a, n, ins, f, limit, attempt)
}

// maxAttempts is how many attempts operator node n gets: the retry policy's
// when retry is enabled and the operator CanRetry, one otherwise.
func (e *Engine) maxAttempts(n *graph.Node) int {
	if e.cfg.Retry.enabled() && n.Op.CanRetry() {
		return e.cfg.Retry.MaxAttempts
	}
	return 1
}

// execOp runs one operator node: fault injection, the optional deadline,
// and deterministic retry.
func (e *Engine) execOp(w *worker, a *activation, n *graph.Node, ins []value.Value) error {
	w.n.operators++
	if e.cfg.Mode == Simulated {
		w.q.(*simScheduler).touch(w, ins)
	}
	return e.attempts(w, a, n, ins, 1)
}

// attempts runs operator node n from attempt number first on. While
// attempts remain for a retryable operator, each attempt runs on deep copies
// of the destructively-declared arguments, keeping the originals pristine —
// §8 guarantees an operator mutates only blocks it exclusively owns, so a
// failed attempt's damage is confined to its copies and the re-run sees
// bit-identical inputs. The final (or only) attempt runs the ordinary
// copy-on-write protocol in place, so a run with retry configured but no
// failures does no extra copying beyond the snapshots of attempts that had
// successors. Between attempts no original is held aside, which is what lets
// the watchdog resume a timed-out attempt's node here at the next attempt
// (deadlines.settle).
func (e *Engine) attempts(w *worker, a *activation, n *graph.Node, ins []value.Value, first int) error {
	maxAttempts := e.maxAttempts(n)
	// pristine[i] != nil marks ins[i] as an attempt copy whose untouched
	// original is pristine[i].
	var pristine []value.Value
	for attempt := first; ; attempt++ {
		if attempt < maxAttempts {
			var snaps int64
			for i := range ins {
				if !n.Op.MayModify(i) {
					continue
				}
				if pristine == nil {
					pristine = e.pristineBuf(w, len(ins))
				}
				pristine[i] = ins[i]
				cp, words := w.snapshotValue(ins[i], &snaps)
				ins[i] = cp
				w.localWords += int64(words)
			}
			if snaps > 0 {
				atomic.AddInt64(&e.stats.SnapshotCopies, snaps)
			}
		} else {
			// Enforce the sole-reference rule in place (§8 rule 2).
			for i := range ins {
				if !n.Op.MayModify(i) {
					continue
				}
				nv, copied := w.makeWritable(ins[i])
				ins[i] = nv
				w.localWords += int64(copied)
				if w.tr != nil && copied > 0 {
					w.tr.record(w.proc, trace.Event{Type: trace.BlockCopy, Ts: w.tr.now(),
						Act: a.seq, Node: int32(n.ID), Arg: int64(copied), Name: n.Name})
				}
			}
		}
		result, err := e.invokeOp(w, a, n, ins, attempt)
		if err == nil {
			if result == nil {
				result = value.Null{}
			}
			if e.cfg.Mode == Simulated {
				w.q.(*simScheduler).homeValue(w, result)
			}
			w.settleRefs(ins, result)
			// The attempt consumed its (copied) inputs; the pristine
			// originals held back for a retry are now surplus.
			releaseHeld(pristine, &w.shard)
			clearInputs(ins)
			e.complete(w, a, n, result)
			return nil
		}
		if err == errAbandoned {
			return err
		}
		if attempt < maxAttempts && retryable(err) {
			e.noteRetry(w, a, n, attempt)
			e.rewind(w, ins, pristine)
			continue
		}
		// Out of attempts (or a non-retryable failure): the node consumed
		// nothing — release every input reference, attempt copies and held
		// pristine originals alike, so the teardown sweep finds no stale
		// slots.
		for _, in := range ins {
			value.Release(in, &w.shard)
		}
		releaseHeld(pristine, &w.shard)
		clearInputs(ins)
		return e.nodeError(a, n, err, attempt)
	}
}

// pristineBuf returns n empty slots to hold an attempt's pristine originals
// in: the worker's deadline slot's on a bounded engine, where the watchdog
// finds them if it abandons the attempt, fresh ones otherwise.
func (e *Engine) pristineBuf(w *worker, n int) []value.Value {
	if e.dl == nil {
		return make([]value.Value, n)
	}
	s := e.dl.slots[w.proc]
	if cap(s.pristine) < n {
		s.pristine = make([]value.Value, n)
	}
	s.pristine = s.pristine[:n]
	return s.pristine
}

// releaseHeld releases the pristine originals held aside and empties their
// slots.
func releaseHeld(pristine []value.Value, st *value.BlockStats) {
	for i, p := range pristine {
		if p != nil {
			value.Release(p, st)
			pristine[i] = nil
		}
	}
}

// noteRetry counts a failed attempt that will be retried.
func (e *Engine) noteRetry(w *worker, a *activation, n *graph.Node, attempt int) {
	atomic.AddInt64(&e.stats.Retries, 1)
	if w.tr != nil {
		w.tr.record(w.proc, trace.Event{Type: trace.Retry, Ts: w.tr.now(),
			Act: a.seq, Node: int32(n.ID), Name: n.Name, Arg: int64(attempt)})
	}
}

// rewind readies ins for the next attempt after a failed one: the (possibly
// half-mutated) attempt copies are dropped, the pristine originals take
// their place, and the retry backoff is waited out.
func (e *Engine) rewind(w *worker, ins, pristine []value.Value) {
	for i, p := range pristine {
		if p != nil {
			value.Release(ins[i], &w.shard)
			ins[i], pristine[i] = p, nil
		}
	}
	if e.cfg.Retry.Backoff > 0 {
		time.Sleep(e.cfg.Retry.Backoff)
	}
}

// snapshotValue deep-copies every block reachable from v into a fresh,
// exclusively-owned block (placement inherited), leaving v and its
// reference counts untouched; copies counts the blocks duplicated.
// Closures are shared rather than copied — they are never destructively
// modified — but the snapshot retains their environment so the attempt
// copy owns its own references and settle/release stays balanced.
func (w *worker) snapshotValue(v value.Value, copies *int64) (value.Value, int) {
	switch x := v.(type) {
	case *value.Block:
		nb := value.NewBlockStats(x.Data().Copy(), &w.shard)
		w.inherit(x, nb)
		*copies++
		return nb, nb.Size()
	case value.Tuple:
		out := make(value.Tuple, len(x))
		words := 0
		for i, el := range x {
			var ew int
			out[i], ew = w.snapshotValue(el, copies)
			words += ew
		}
		return out, words
	case *value.Closure:
		value.Retain(x, &w.shard)
		return x, 0
	default:
		return v, 0
	}
}

// execNode runs one dispatched task from operator attempt number attempt.
// An attempt past the first resumes an operator node whose previous attempt
// the watchdog abandoned (deadlines.settle); that dispatch was counted, and
// its charges kept, when it began.
func (e *Engine) execNode(w *worker, t task, attempt int) error {
	var err error
	if attempt > 1 {
		err = e.attempts(w, t.act, t.node, t.act.inputs(t.node), attempt)
	} else {
		w.charge, w.localWords, w.remoteWords = 0, 0, 0
		if err = e.checkOps(w, t.act); err == nil {
			err = e.execBody(w, t.act, t.node)
		}
	}
	if err == errAbandoned {
		return err
	}
	w.n.charged += w.charge
	return err
}

// checkOps counts a dispatch, enforces the operation budget, and polls
// cancellation at operator boundaries, amortized across executions; the
// disabled cases cost one nil check each. The count is the worker's own.
// A budget needs the run's total, so a bounded engine also claims the node
// on one shared counter and fails the dispatch that takes it past MaxOps.
// The poll fires on every 64th dispatch of the worker — no cancellation
// callback stops an unbounded one-worker or simulated run's queue, so this
// poll is their only cancellation path.
func (e *Engine) checkOps(w *worker, a *activation) error {
	w.n.ops++
	if e.maxOps > 0 && e.opsClaimed.Add(1) > e.maxOps {
		return errBudget(e.maxOps, activationPath(a))
	}
	if w.n.ops&63 == 0 {
		w.foldLive()
		if e.ctxDone != nil {
			select {
			case <-e.ctxDone:
				return &RunError{Kind: FailCanceled, Path: activationPath(a), Err: e.runCtx.Err()}
			default:
			}
		}
	}
	return nil
}

// execBody dispatches on the node kind; accounting (OpsExecuted, budget,
// cancellation) is checkOps' job.
func (e *Engine) execBody(w *worker, a *activation, n *graph.Node) error {
	ins := a.inputs(n)

	switch n.Kind {
	case graph.OpNode:
		return e.execOp(w, a, n, ins)

	case graph.TupleNode:
		result := make(value.Tuple, len(ins))
		copy(result, ins)
		// Every input occurrence appears in the result: pure transfer.
		clearInputs(ins)
		e.complete(w, a, n, result)
		return nil

	case graph.DetupleNode:
		tup, ok := ins[0].(value.Tuple)
		if !ok {
			return e.failNode(a, n, ins, fmt.Errorf("decomposing %s value; multiple-value package required", ins[0].Kind()))
		}
		if n.Index >= len(tup) {
			return e.failNode(a, n, ins, fmt.Errorf("package has %d values, need %d", len(tup), n.Index+1))
		}
		result := tup[n.Index]
		if n.SpreadConsumer {
			// The producer split ownership: this node owns exactly element
			// Index; the designated sibling releases uncovered elements.
			if n.CoveredIdx != nil {
				for j, el := range tup {
					if !intsContain(n.CoveredIdx, j) {
						w.releaseDying(el)
					}
				}
			}
		} else {
			w.settleRefs(ins, result)
		}
		clearInputs(ins)
		e.complete(w, a, n, result)
		return nil

	case graph.MakeClosureNode:
		env := make([]value.Value, len(ins))
		copy(env, ins)
		result := &value.Closure{Fn: n.Callee, Env: env}
		clearInputs(ins)
		e.complete(w, a, n, result)
		return nil

	case graph.CallNode:
		args := append(w.argBuf(len(ins)), ins...)
		clearInputs(ins)
		return e.expand(w, a, n, n.Callee, args)

	case graph.CallClosureNode:
		cl, ok := ins[0].(*value.Closure)
		if !ok {
			return e.failNode(a, n, ins, fmt.Errorf("calling %s value; function required", ins[0].Kind()))
		}
		callee, ok := cl.Fn.(*graph.Template)
		if !ok {
			return e.failNode(a, n, ins, fmt.Errorf("closure has no executable template"))
		}
		if got := len(ins) - 1; got != callee.ParamCount() {
			return e.failNode(a, n, ins, fmt.Errorf("function %s expects %d arguments, got %d",
				callee.Name, callee.ParamCount(), got))
		}
		args := append(w.argBuf(len(ins)-1+len(cl.Env)), ins[1:]...)
		for _, envV := range cl.Env {
			value.Retain(envV, &w.shard) // the child owns its copy
			args = append(args, envV)
		}
		value.Release(cl, &w.shard) // drops the closure's env refs
		clearInputs(ins)
		return e.expand(w, a, n, callee, args)

	case graph.CondNode:
		truth, err := value.Truthy(ins[0])
		if err != nil {
			return e.failNode(a, n, ins, err)
		}
		w.releaseDying(ins[0])
		branch := n.Else
		if truth {
			branch = n.Then
		}
		args := append(w.argBuf(len(ins)-1), ins[1:]...)
		clearInputs(ins)
		return e.expand(w, a, n, branch, args)

	default:
		return e.failNode(a, n, ins, fmt.Errorf("internal: node kind %s reached the scheduler", n.Kind))
	}
}

// expand creates a child activation of callee for subgraph-expansion node n
// (call, call-closure, or conditional branch). Whenever the expanding node
// is the template's result and feeds no other consumer, the parent's
// continuation transfers to the child and the parent's buffers become
// reusable immediately — the runtime's O(1) execution of tail recursion
// (§7). This applies to conditional expansions too, so the hidden loop
// templates that iterate lowers to keep a constant number of live
// activations regardless of trip count.
//
// args is the worker's scratch vector (argBuf). expand and initActivation
// only read it while seeding the child — they never keep it and never
// re-enter execBody, which is what makes one vector per worker enough — and
// expand clears it before returning.
func (e *Engine) expand(w *worker, a *activation, n *graph.Node, callee *graph.Template, args []value.Value) error {
	if callee == nil {
		return e.failNode(a, n, args, fmt.Errorf("internal: unlinked callee"))
	}
	if len(args) != callee.NumArgs() {
		return e.failNode(a, n, args, fmt.Errorf("internal: %s expects %d activation arguments, got %d",
			callee.Name, callee.NumArgs(), len(args)))
	}
	child := e.acquire(w, callee)
	w.noteLive(1, int64(callee.ActivationWords()))
	if len(n.Out) == 0 && n.ID == a.tmpl.Result && !a.delegated.Load() {
		child.cont = a.cont
		a.delegated.Store(true)
		w.n.tailCalls++
		if w.tr != nil {
			w.tr.record(w.proc, trace.Event{Type: trace.TailCall, Ts: w.tr.now(),
				Act: child.seq, Tmpl: callee.Name, Name: n.Name})
		}
		e.initActivation(w, child, args)
		clear(args)
		e.finishNode(w, a)
		return nil
	}
	child.cont = continuation{act: a, node: n}
	e.initActivation(w, child, args)
	clear(args)
	return nil
}

// initActivation seeds parameters and constants (never scheduled) and
// enqueues every node that is runnable from the start.
func (e *Engine) initActivation(w *worker, a *activation, args []value.Value) {
	for _, n := range a.tmpl.Nodes {
		if n.NIn != 0 {
			continue
		}
		switch n.Kind {
		case graph.ParamNode:
			e.complete(w, a, n, args[n.Index])
		case graph.ConstNode:
			e.complete(w, a, n, n.Const)
		default:
			w.q.push(w, a, n)
		}
	}
}

// complete publishes node n's value: it settles fan-out references,
// delivers to each consumer port, and — when n is the template's result —
// bubbles the value through the continuation chain iteratively.
func (e *Engine) complete(w *worker, a *activation, n *graph.Node, v value.Value) {
	for {
		if n.Spread {
			// Ownership of the package's elements is split among the
			// consuming detuple nodes; no retention multiplier applies.
			for _, edge := range n.Out {
				e.deliverEdge(w, a, edge, v)
			}
			e.flushReady(w, a)
			e.finishNode(w, a) // Spread producers are never the result node
			return
		}
		isResult := n.ID == a.tmpl.Result && !a.delegated.Load()
		consumers := len(n.Out)
		if isResult {
			consumers++
		}
		switch {
		case consumers == 0:
			w.releaseDying(v)
		default:
			for i := 1; i < consumers; i++ {
				value.Retain(v, &w.shard)
			}
		}
		for _, edge := range n.Out {
			e.deliverEdge(w, a, edge, v)
		}
		e.flushReady(w, a)
		if !isResult {
			e.finishNode(w, a)
			return
		}
		cont := a.cont
		e.finishNode(w, a)
		if cont.act == nil {
			e.finish(v)
			return
		}
		a, n = cont.act, cont.node
	}
}

// deliverEdge delivers v along one out edge; a node that became runnable is
// batched on w.ready for flushReady.
func (e *Engine) deliverEdge(w *worker, a *activation, edge graph.Edge, v value.Value) {
	if e.cfg.Mode == Simulated {
		w.q.(*simScheduler).delivered(a, edge.To)
	}
	if w.tr != nil {
		w.tr.record(w.proc, trace.Event{Type: trace.Deliver, Ts: w.tr.now(),
			Act: a.seq, Node: int32(edge.To)})
	}
	if a.deliver(edge.To, edge.Port, v) {
		w.ready = append(w.ready, a.tmpl.Nodes[edge.To])
	}
}

// flushReady schedules the nodes deliverEdge batched, in delivery order.
func (e *Engine) flushReady(w *worker, a *activation) {
	for _, n := range w.ready {
		w.q.push(w, a, n)
	}
	w.ready = w.ready[:0]
}

// finishNode retires one node on w; the last retirement recycles the
// activation onto w's free list.
func (e *Engine) finishNode(w *worker, a *activation) {
	if atomic.AddInt32(&a.remaining, -1) == 0 {
		w.noteLive(-1, -int64(a.tmpl.ActivationWords()))
		e.release(w, a)
	}
}

// cleanupAfterError releases every block reference a failed run still
// holds: the buffered inputs of live activations reachable from the
// abandoned ready-queue tasks, the failing activations, the root, and each
// of their continuation ancestors — plus any result value produced before
// the failure won the race. Every live activation either has abandoned
// queue work or is an ancestor (via cont) of an activation that does, so
// the sweep closes over the live set; the exception is an activation
// stalled forever below a true deadlock, which only a compiler bug can
// produce. Called single-threaded after the run has quiesced; retired
// activations are safe to visit because every execution path clears its
// consumed input slots.
func (e *Engine) cleanupAfterError(pending []task) {
	seen := make(map[*activation]bool)
	sweep := func(a *activation) {
		for cur := a; cur != nil && !seen[cur]; cur = cur.cont.act {
			seen[cur] = true
			off, _ := cur.tmpl.Layout()
			for _, n := range cur.tmpl.Nodes {
				for p := 0; p < n.NIn; p++ {
					slot := off[n.ID] + p
					v := cur.buf[slot]
					if v == nil {
						continue
					}
					cur.buf[slot] = nil
					// A Spread producer stores the same package in every
					// consumer port with its ownership split: this port owns
					// element Index (plus the uncovered elements when it is
					// the designated sibling), never the whole tuple.
					if tup, ok := v.(value.Tuple); ok && n.SpreadConsumer {
						if n.Index < len(tup) {
							value.Release(tup[n.Index], &e.stats.Blocks)
						}
						if n.CoveredIdx != nil {
							for j, el := range tup {
								if !intsContain(n.CoveredIdx, j) {
									value.Release(el, &e.stats.Blocks)
								}
							}
						}
						continue
					}
					value.Release(v, &e.stats.Blocks)
				}
			}
		}
	}
	for _, t := range pending {
		sweep(t.act)
	}
	for _, a := range e.failedActs {
		sweep(a)
	}
	sweep(e.rootAct)
	if box, ok := e.result.Load().(resultBox); ok && box.v != nil {
		value.Release(box.v, &e.stats.Blocks)
	}
}

// intsContain reports membership in a small sorted slice.
func intsContain(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
		if x > v {
			return false
		}
	}
	return false
}
