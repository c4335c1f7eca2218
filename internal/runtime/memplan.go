package runtime

import "repro/internal/value"

// memState is one worker's share of an active memory plan: the block free
// list operators allocate through. Each of the engine's workers owns one
// (the boot worker too), so nothing here is synchronized; the plan's elision
// counters live in the worker's counters and fold with them.
//
// Detached shadow workers (timed-out operator attempts) deliberately carry
// no memState: an abandoned goroutine must not feed payloads into — or
// allocate from — a free list a live worker is using.
type memState struct {
	pool value.BlockPool
	// hitsFolded is the pool hit count already folded into Stats; fold
	// publishes the delta, so the free list can persist across runs without
	// double-counting.
	hitsFolded int64
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
				w.n.elidedReleases++
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
