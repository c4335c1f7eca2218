package runtime

import (
	"sync/atomic"

	"repro/internal/value"
)

// memState is one worker's share of an active memory plan: the block free
// list operators allocate through and the elision counters. Each of the
// engine's workers owns one (the boot worker too), so nothing here is
// synchronized; the engine merges the counters into Stats after the run
// quiesces.
//
// Detached shadow workers (timed-out operator attempts) deliberately carry
// no memState: an abandoned goroutine must not feed payloads into — or
// allocate from — a free list a live worker is using.
type memState struct {
	pool           value.BlockPool
	elidedRetains  int64
	elidedReleases int64
	copiesAvoided  int64
	// hitsMerged is the pool hit count already folded into Stats by earlier
	// runs of this engine; mergeMemStats reports deltas against it so the
	// free lists can persist across runs without double-counting.
	hitsMerged int64
}

// mergeMemStats folds every worker's plan counters into Stats; called once,
// single-threaded, after the run has quiesced. The states themselves — and
// the warmed block free lists inside them — survive for the next run of a
// reused engine, so only this run's deltas are folded: the plain counters
// are zeroed after merging, and the pool's cumulative hit counter is
// baselined in hitsMerged.
func (e *Engine) mergeMemStats() {
	for i := range e.workers {
		m := e.workers[i].mem
		atomic.AddInt64(&e.stats.ElidedRetains, m.elidedRetains)
		atomic.AddInt64(&e.stats.ElidedReleases, m.elidedReleases)
		atomic.AddInt64(&e.stats.PooledAllocs, m.pool.Hits()-m.hitsMerged)
		atomic.AddInt64(&e.stats.CopiesAvoided, m.copiesAvoided)
		m.elidedRetains, m.elidedReleases, m.copiesAvoided = 0, 0, 0
		m.hitsMerged = m.pool.Hits()
	}
}

// releaseDying drops the last graph reference to a value that the plan (or
// the spread protocol) says dies at this node. owned marks values statically
// proven exclusive: their blocks skip the atomic release entirely and their
// payloads are recycled. Unproven values take the ordinary release, still
// recycling the payload when this call happens to be the zero-crossing.
func (w *worker) releaseDying(v value.Value, owned bool) {
	m := w.mem
	st := &w.e.stats.Blocks
	switch x := v.(type) {
	case *value.Block:
		if owned {
			if data, ok := x.FreeOwned(st); ok {
				m.elidedReleases++
				m.pool.Put(data)
				return
			}
			return // FreeOwned degraded to a counted Release
		}
		if x.Release(st) {
			m.pool.Put(x.TakeData())
		}
	case value.Tuple:
		for _, el := range x {
			w.releaseDying(el, owned)
		}
	case *value.Closure:
		for _, el := range x.Env {
			w.releaseDying(el, owned)
		}
	}
}
