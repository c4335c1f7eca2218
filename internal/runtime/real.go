package runtime

import "context"

// runWorkers runs the seeded program on n spawned goroutines and returns once
// each has left the task loop or been abandoned to the watchdog (which then
// stood in for it at the join). With q the work-stealing scheduler
// (stealqueue.go), n is one goroutine per configured processor: each worker
// schedules the nodes it makes runnable onto its own deque (LIFO, so a
// producer's consumers run hot), the boot worker's seeds already wait on
// worker 0's, and idle workers steal FIFO from their peers. A one-worker run
// comes here only when bounded, and a simulated run too, with n = 1, so that
// the caller can return at a deadline while that goroutine is stuck inside an
// operator. The caller has checked that the seeds left a task to run.
func (e *Engine) runWorkers(q scheduler, n int) {
	s, _ := q.(*stealScheduler)

	// Cancellation lets a run with slow or parked workers drain promptly: it
	// records the failure and closes the scheduler, waking every parked
	// worker, instead of waiting for the next poll inside execNode, and has
	// the watchdog abandon the run's in-flight bounded calls. The callback
	// must be stopped — or, once it fired, waited for — before runErr is read
	// or the queues are swept.
	var stop func() bool
	if e.ctxDone != nil {
		e.canceling.Add(1)
		stop = context.AfterFunc(e.runCtx, func() {
			defer e.canceling.Done()
			if s != nil {
				e.failAt(nil, &RunError{Kind: FailCanceled, Err: e.runCtx.Err()})
				s.close()
			}
			if e.dl != nil {
				e.dl.cancel()
			}
		})
	}

	// A worker abandoned to the watchdog returns errAbandoned and touches
	// nothing: the watchdog, or the goroutine it resumed the worker on,
	// leaves the run in its place.
	e.join.Add(n)
	for proc := 0; proc < n; proc++ {
		w := e.worker(proc, q)
		go func() {
			if e.loop(w) != errAbandoned {
				e.leave()
			}
		}()
	}
	e.join.Wait()
	if stop != nil {
		if stop() {
			e.canceling.Done()
		}
		e.canceling.Wait()
	}
}
