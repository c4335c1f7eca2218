package runtime

import (
	"context"
	"sync"

	"repro/internal/value"
)

// RunResult is one invocation's outcome in a RunMany batch. Each invocation
// is an independent run: Err, when non-nil, is the same *RunError (or
// validation error) the equivalent single Run would have returned, and a
// failure leaves the other invocations untouched.
type RunResult struct {
	Value value.Value
	Err   error
}

// runPool is the persistent worker pool behind the repeated-run fast path:
// one goroutine per processor, created once per RunMany batch and kept
// alive across every invocation in it. Between runs the workers block on a
// generation condvar instead of exiting, so a run costs one broadcast and
// one rendezvous — no goroutine spawn, no join, no scheduler reallocation.
//
// The handshake: runRound publishes a new generation and wakes everyone;
// each worker executes engine.poolWorker until the run's scheduler closes
// (quiescence, error, or cancellation), signals runWg, and goes back to
// waiting for the next generation. runRound returns when all workers have
// signaled, which is exactly the post-run quiescence point the single-run
// executor reaches via wg.Wait.
type runPool struct {
	e  *Engine
	nw int

	mu   sync.Mutex
	cond *sync.Cond
	gen  int64
	quit bool

	// runWg is the per-run rendezvous; joinWg joins the goroutines on stop.
	runWg  sync.WaitGroup
	joinWg sync.WaitGroup
	// lost lists the processors whose goroutine the watchdog abandoned inside
	// an operator; runRound replaces them before the next round.
	lost []int
}

func newRunPool(e *Engine, nw int) *runPool {
	p := &runPool{e: e, nw: nw}
	p.cond = sync.NewCond(&p.mu)
	p.joinWg.Add(nw)
	for proc := 0; proc < nw; proc++ {
		go p.loop(proc, 0)
	}
	return p
}

// loop is one pooled worker: wait for a generation after seen, run it,
// signal, repeat. A goroutine abandoned to the watchdog exits without
// signaling: the watchdog already stood in for it at both joins.
func (p *runPool) loop(proc int, seen int64) {
	for {
		p.mu.Lock()
		for p.gen == seen && !p.quit {
			p.cond.Wait()
		}
		if p.quit {
			p.mu.Unlock()
			p.joinWg.Done()
			return
		}
		seen = p.gen
		p.mu.Unlock()
		// e.sched is set by Engine.run before runRound publishes the
		// generation, so the read here is ordered by the mutex.
		if p.e.poolWorker(p.e.sched, proc) == errAbandoned {
			return
		}
		p.runWg.Done()
	}
}

// abandon stands in for proc's goroutine, left stuck inside an operator by
// the watchdog: it counts the goroutine out of the pool's join and the run's
// rendezvous, and marks proc for replacement before the next round.
func (p *runPool) abandon(proc int) {
	p.mu.Lock()
	p.lost = append(p.lost, proc)
	p.mu.Unlock()
	p.joinWg.Done()
	p.runWg.Done()
}

// runRound hands the pooled workers one run and blocks until every worker
// has returned from its loop — the run has quiesced, failed, or been
// cancelled. Called from runWorkers in place of the spawn-and-join block.
func (p *runPool) runRound() {
	p.runWg.Add(p.nw)
	p.mu.Lock()
	for _, proc := range p.lost {
		p.joinWg.Add(1)
		go p.loop(proc, p.gen)
	}
	p.lost = p.lost[:0]
	p.gen++
	p.mu.Unlock()
	p.cond.Broadcast()
	p.runWg.Wait()
}

// stop retires the pool, joining every live worker goroutine. Idempotent-unsafe
// by design: RunMany owns the pool's whole lifecycle within one call.
func (p *runPool) stop() {
	p.mu.Lock()
	p.quit = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.joinWg.Wait()
}

// RunMany executes the program once per argument list in batch, reusing
// this engine for every invocation: activation pools, block free lists, and
// the work-stealing scheduler warm up once and serve the whole batch, and in
// multi-worker Real mode the worker goroutines themselves persist across
// runs, parked on a generation handshake instead of being respawned and
// joined per run.
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
	if ctx == nil {
		ctx = context.Background()
	}
	switch e.state.Load() {
	case engRunning:
		return nil, ErrEngineRunning
	case engFinished:
		if err := e.Reset(); err != nil {
			return nil, err
		}
	}
	if nw := e.cfg.workers(); e.cfg.Mode == Real && nw > 1 && len(batch) > 1 {
		// Install the persistent pool for the batch. runWorkers sees it and
		// routes dispatch through runRound instead of spawning goroutines.
		// The pool is created and retired inside this call, so plain Run
		// users never hold idle goroutines.
		e.pool = newRunPool(e, nw)
		defer func() {
			e.pool.stop()
			e.pool = nil
		}()
	}
	results := make([]RunResult, len(batch))
	for i, args := range batch {
		if i > 0 {
			if err := e.Reset(); err != nil {
				// Unreachable in normal operation (the previous RunContext
				// has returned), but surface it rather than mask it.
				return results, err
			}
		}
		v, err := e.RunContext(ctx, args...)
		results[i] = RunResult{Value: v, Err: err}
	}
	return results, nil
}
