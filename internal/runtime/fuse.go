package runtime

import "repro/internal/graph"

// Fused supernode dispatch. The fusion pass (internal/opt/fuse.go) proved
// that once a cluster's head is runnable, every member can execute in the
// cluster's stored topological order with all inputs present: internal
// values land directly in the next member's slot (complete's
// FuseInternalOut fast path) and every external input was already delivered
// before the head's gate opened. execFused therefore runs the whole cluster
// as one straight-line interpreted sequence on the dispatching worker — one
// ready-queue round trip, one dispatch overhead, no counter traffic between
// members.
//
// Composition notes:
//   - retry/faults: each member runs through the ordinary execBody path,
//     so a retryable member re-executes from its own snapshot boundary and
//     a terminal failure aborts the sequence exactly like an unfused run;
//   - tracing: the executor's outer start/end pair brackets the supernode
//     (labeled "fused:<head>") and per-member start/end pairs nest inside
//     it, so the critical-path analyzer and the Chrome export see exact
//     per-operator durations;
//   - simulated time: each member's bracket advances the virtual clock by
//     its individually-priced cost (simScheduler.end), so nested events
//     carry exact virtual timestamps; the scheduler charges dispatch
//     overhead once for the whole supernode, which is precisely the saving
//     being modeled.

// dispatchLabel names a dispatched task for trace output: supernodes are
// prefixed so a trace distinguishes the bracketing slice from the head
// member's own slice nested inside it.
func dispatchLabel(n *graph.Node) string {
	if n.FuseCluster != nil {
		return "fused:" + traceLabel(n)
	}
	return traceLabel(n)
}

// execFused runs the cluster c headed by t's node to completion (or first
// error). The caller has reset the worker's charge accumulators; they
// accumulate across members so the simulated scheduler prices the whole
// supernode.
func (e *Engine) execFused(w *worker, t task, c *graph.Cluster) error {
	a := t.act
	w.n.fusedNodes += int64(len(c.Nodes))
	w.n.fusedSaved += int64(len(c.Nodes) - 1)
	// Batch the execution accounting: one count and one budget/cancellation
	// check for the whole cluster, instead of one per member. The budget may
	// overshoot by at most the cluster size.
	if err := e.checkOps(w, a, int64(len(c.Nodes))); err != nil {
		return err
	}
	tmpl := a.tmpl
	// With no observers there are no clocks to read and no events to record
	// — just the straight-line member sequence.
	observed := w.tr != nil || e.timing != nil
	if w.tr != nil {
		w.tr.record(w.proc, TraceEvent{Type: TraceFused, Ts: w.tr.now(), Act: a.seq,
			Node: int32(c.Head), Name: traceLabel(tmpl.Nodes[c.Head]), Arg: int64(len(c.Nodes))})
	}
	// Internal members skip their remaining-counter decrement in complete's
	// fast path; the batch settles here in one atomic. It must be applied
	// before the tail runs — the tail may recycle the activation in place
	// (tail call), and until then the tail's own pending entry keeps the
	// batched add from reaching zero. On a mid-chain error the members
	// completed so far settle before the error propagates, leaving the same
	// counter state an unfused failure would.
	last := len(c.Nodes) - 1
	for i, id := range c.Nodes {
		if i == last {
			e.finishNodes(w, a, int32(last))
		}
		n := tmpl.Nodes[id]
		var sp span
		if observed {
			sp = w.begin(a, n, traceLabel(n))
		}
		err := e.execBody(w, a, n)
		if err == errAbandoned {
			return err
		}
		if observed {
			w.end(sp, t, n, true, err)
		}
		if err != nil {
			if i < last {
				e.finishNodes(w, a, int32(i))
			}
			return err
		}
	}
	return nil
}
