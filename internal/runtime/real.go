package runtime

// runWorkers runs the seeded program off the caller's goroutine and returns
// once every goroutine running it has left the task loop or been abandoned to
// the watchdog (which then stood in for it at the join). With s non-nil the
// program runs on a pool of worker goroutines — one per configured processor
// — coordinated by the work-stealing scheduler in stealqueue.go: each worker
// schedules the nodes it makes runnable onto its own priority deques (LIFO,
// so a producer's consumers run hot); seeding went through the shared
// injector; idle workers steal FIFO from their peers, preserving the §7
// priority order at every tier. With s nil — a bounded serial or simulated
// run — one goroutine runs w's loop, so that the caller can return at a
// deadline while that goroutine is stuck inside an operator.
func (e *Engine) runWorkers(s *stealScheduler, w *worker) {
	if s != nil && s.outstanding.Load() == 0 {
		// The whole program evaluated during seeding (constant main) or
		// nothing is runnable at all: no task will ever retire, so nothing
		// would close the scheduler.
		return
	}

	// A cancellation watcher lets a run with slow or parked workers drain
	// promptly: it records the failure and closes the scheduler, waking
	// every parked worker, instead of waiting for the next poll inside
	// execNode, and has the watchdog abandon the run's in-flight bounded
	// calls. It must be stopped before runErr is read or the queues are
	// swept, so the shutdown path joins it explicitly.
	var cancelWatch, watcherDone chan struct{}
	if e.ctxDone != nil {
		cancelWatch, watcherDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-e.ctxDone:
				if s != nil {
					e.failAt(nil, &RunError{Kind: FailCanceled, Err: e.runCtx.Err()})
					s.close()
				}
				if e.dl != nil {
					e.dl.cancel()
				}
			case <-cancelWatch:
			}
		}()
	}

	switch {
	case s == nil:
		e.join.Add(1)
		go func() {
			if e.loop(w) != errAbandoned {
				e.join.Done()
			}
		}()
		e.join.Wait()
	case e.pool != nil:
		// RunMany installed a persistent pool: the worker goroutines already
		// exist, parked between runs. Hand them the run and rendezvous at
		// quiescence — no spawn, no join.
		e.pool.runRound()
	default:
		e.join.Add(len(s.local))
		for proc := 0; proc < len(s.local); proc++ {
			go func(proc int) {
				if e.poolWorker(s, proc) != errAbandoned {
					e.join.Done()
				}
			}(proc)
		}
		e.join.Wait()
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
// the scheduler, which wakes every parked peer on the error path. A worker
// abandoned to the watchdog returns errAbandoned and touches nothing.
func (e *Engine) poolWorker(s *stealScheduler, proc int) error {
	err := e.loop(e.worker(proc, s))
	if err == nil {
		s.close()
	}
	return err
}
