package value

import "math/bits"

// BlockPool is a per-worker free list of recyclable block payloads, size-
// classed by power-of-two word counts. The run-time system owns it: every
// engine worker has one, and when a block's last reference is released on a
// worker its payload goes to that worker's pool. Operators allocate through
// the pool (operator.Context.Pool), so a dead payload is reused by the next
// allocation of matching size on the same worker.
//
// Reuse is safe only under the ownership rule: a payload belongs to one
// block, so neither an operator nor the host may keep a payload, or a slice
// of one, from a block it gave away.
//
// A pool is single-owner (one worker goroutine) and needs no locking; the
// engine folds its hit counter into Stats. All allocation helpers are safe
// on a nil receiver — they simply fall through to a fresh allocation — so
// code running outside an engine worker can call them too.
type BlockPool struct {
	classes [poolClasses][]BlockData
	puts    int64
	hits    int64
}

const (
	// poolClasses covers word counts up to 2^27 (1 GiB of float64s) —
	// anything larger is not worth caching.
	poolClasses = 28
	// poolClassCap bounds each class's free list so a burst of frees cannot
	// pin unbounded garbage.
	poolClassCap = 64
)

// poolClass maps a word count to its size class: the exponent of the
// smallest power of two >= max(words, 1).
func poolClass(words int) int {
	if words <= 1 {
		return 0
	}
	return bits.Len(uint(words - 1))
}

// Put offers a detached payload for recycling. Payload types the pool cannot
// re-issue are dropped; so is anything beyond the class cap or the class
// range.
func (p *BlockPool) Put(data BlockData) {
	if p == nil || data == nil {
		return
	}
	switch d := data.(type) {
	case *Opaque:
		// A pooled shell must not keep its dead payload reachable.
		d.Payload, d.CopyFunc = nil, nil
	case FloatVec, IntVec, *FloatGrid:
	default:
		return
	}
	c := poolClass(data.Size())
	if c >= poolClasses || len(p.classes[c]) >= poolClassCap {
		return
	}
	p.classes[c] = append(p.classes[c], data)
	p.puts++
}

// take pops the most recently freed entry of class c matching ok.
func (p *BlockPool) take(c int, ok func(BlockData) bool) BlockData {
	if p == nil || c >= poolClasses {
		return nil
	}
	list := p.classes[c]
	for i := len(list) - 1; i >= 0; i-- {
		if ok(list[i]) {
			d := list[i]
			copy(list[i:], list[i+1:])
			p.classes[c] = list[:len(list)-1]
			p.hits++
			return d
		}
	}
	return nil
}

// Opaque returns an Opaque payload describing (payload, words), reusing a
// recycled shell from the matching size class when one is available. The
// shell's previous contents are fully overwritten, so reuse is always safe.
func (p *BlockPool) Opaque(payload interface{}, words int) *Opaque {
	if d := p.take(poolClass(words), func(d BlockData) bool {
		_, isOpaque := d.(*Opaque)
		return isOpaque
	}); d != nil {
		o := d.(*Opaque)
		o.Payload, o.Words, o.CopyFunc = payload, words, nil
		return o
	}
	return &Opaque{Payload: payload, Words: words}
}

// OpaqueCopy is Opaque with an explicit deep-copy function.
func (p *BlockPool) OpaqueCopy(payload interface{}, words int, copyFn func(interface{}) interface{}) *Opaque {
	o := p.Opaque(payload, words)
	o.CopyFunc = copyFn
	return o
}

// Floats returns a zeroed FloatVec of length n, reusing recycled storage
// with sufficient capacity when available. Zeroing keeps a run bit-identical
// whether or not its storage was recycled: an operator must never observe
// stale cells in memory it believes is fresh.
func (p *BlockPool) Floats(n int) FloatVec {
	if d := p.take(poolClass(n), func(d BlockData) bool {
		v, isVec := d.(FloatVec)
		return isVec && cap(v) >= n
	}); d != nil {
		v := d.(FloatVec)[:n]
		for i := range v {
			v[i] = 0
		}
		return v
	}
	return make(FloatVec, n)
}

// Ints returns a zeroed IntVec of length n, reusing recycled storage when
// available.
func (p *BlockPool) Ints(n int) IntVec {
	if d := p.take(poolClass(n), func(d BlockData) bool {
		v, isVec := d.(IntVec)
		return isVec && cap(v) >= n
	}); d != nil {
		v := d.(IntVec)[:n]
		for i := range v {
			v[i] = 0
		}
		return v
	}
	return make(IntVec, n)
}

// Grid returns a zeroed rows x cols FloatGrid, reusing a recycled grid whose
// cell storage has sufficient capacity when available.
func (p *BlockPool) Grid(rows, cols int) *FloatGrid {
	n := rows * cols
	if d := p.take(poolClass(n), func(d BlockData) bool {
		g, isGrid := d.(*FloatGrid)
		return isGrid && cap(g.Cells) >= n
	}); d != nil {
		g := d.(*FloatGrid)
		g.Rows, g.Cols, g.Cells = rows, cols, g.Cells[:n]
		for i := range g.Cells {
			g.Cells[i] = 0
		}
		return g
	}
	return NewFloatGrid(rows, cols)
}

// Hits returns how many allocations were served from the pool.
func (p *BlockPool) Hits() int64 {
	if p == nil {
		return 0
	}
	return p.hits
}

// Puts returns how many payloads were accepted for recycling.
func (p *BlockPool) Puts() int64 {
	if p == nil {
		return 0
	}
	return p.puts
}
