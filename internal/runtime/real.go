package runtime

import "sync"

// runWorkers runs the seeded program on a pool of worker goroutines — one
// per configured processor — coordinated by the work-stealing scheduler in
// stealqueue.go, and returns once every worker has left the task loop. Each
// worker schedules the nodes it makes runnable onto its own priority deques
// (LIFO, so a producer's consumers run hot); seeding went through the shared
// injector; idle workers steal FIFO from their peers, preserving the §7
// priority order at every tier.
func (e *Engine) runWorkers(s *stealScheduler) {
	if s.outstanding.Load() == 0 {
		// The whole program evaluated during seeding (constant main) or
		// nothing is runnable at all: no task will ever retire, so nothing
		// would close the scheduler.
		return
	}

	// A cancellation watcher lets a run with slow or parked workers drain
	// promptly: it records the failure and closes the scheduler, waking
	// every parked worker, instead of waiting for the next poll inside
	// execNode. It must be stopped before runErr is read or the queues are
	// swept, so the pool shutdown path joins it explicitly.
	var cancelWatch, watcherDone chan struct{}
	if e.ctxDone != nil {
		cancelWatch, watcherDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-e.ctxDone:
				e.failAt(nil, &RunError{Kind: FailCanceled, Err: e.runCtx.Err()})
				s.close()
			case <-cancelWatch:
			}
		}()
	}

	if e.pool != nil {
		// RunMany installed a persistent pool: the worker goroutines already
		// exist, parked between runs. Hand them the run and rendezvous at
		// quiescence — no spawn, no join.
		e.pool.runRound()
	} else {
		var wg sync.WaitGroup
		for proc := 0; proc < len(s.local); proc++ {
			wg.Add(1)
			go func(proc int) {
				defer wg.Done()
				e.poolWorker(s, proc)
			}(proc)
		}
		wg.Wait()
	}
	if cancelWatch != nil {
		close(cancelWatch)
		<-watcherDone
	}
}

// poolWorker is one pool worker's share of one run. It runs either on a
// per-run goroutine (plain Run) or on a persistent pool goroutine that
// survives across runs (RunMany). A worker leaves the loop only when the run
// is over — the scheduler closed, or its own node failed — so leaving closes
// the scheduler, which wakes every parked peer on the error path.
func (e *Engine) poolWorker(s *stealScheduler, proc int) {
	e.loop(&worker{e: e, proc: proc, tr: e.tracer, mem: e.memState(proc), q: s})
	s.close()
}
