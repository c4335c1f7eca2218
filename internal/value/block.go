package value

import (
	"fmt"
	"sync/atomic"
)

// BlockData is the payload carried by a shared memory block. Payloads must
// know how to deep-copy themselves (for copy-on-write) and report their size
// in abstract words (for the simulated machines' memory-cost models and the
// run-time system's locality heuristics, §9.3).
type BlockData interface {
	// Copy returns a deep copy that shares no mutable state with the
	// receiver.
	Copy() BlockData
	// Size returns the payload size in words.
	Size() int
}

// Block is a reference-counted shared memory block (§8 coordination model,
// rules 1 and 2). All shared memory is explicitly passed between operators
// as blocks; a sub-computation may destructively modify a block only if it
// owns the sole reference to it.
//
// The header is the count and the payload and nothing else: 24 bytes, Go's
// 24-byte size class. Accounting goes to the sink each call site passes, and
// the §9.3 data-affinity preference is the simulated executor's own table,
// the only code that reads it.
type Block struct {
	refs int64
	data BlockData
}

// BlockStats aggregates reference-counting activity for one program run.
// The copy counter is the observable cost of the determinism guarantee: a
// careful Delirium programmer arranges splits so that large structures are
// never copied (§2.1).
//
// Every counter goes to the sink passed at the call site that did the work:
// Allocated where the block is created, Freed where its last reference is
// dropped, which may be a different sink. Allocated == Freed therefore holds
// on the sum of every sink a run counted into (a run's worker shards fold into
// Stats.Blocks as each worker leaves), not on any one of them. A nil sink
// counts nothing.
type BlockStats struct {
	Allocated int64 // blocks created
	Copies    int64 // copy-on-write duplications
	Retains   int64
	Releases  int64
	Freed     int64 // refcount reached zero
}

// Add atomically accumulates other into s: a worker folding its shard into
// the engine's Stats.Blocks as it leaves a run, or a bounded operator call's
// deadline-slot shard merging into the dispatching worker's shard on accept.
func (s *BlockStats) Add(other BlockStats) {
	atomic.AddInt64(&s.Allocated, other.Allocated)
	atomic.AddInt64(&s.Copies, other.Copies)
	atomic.AddInt64(&s.Retains, other.Retains)
	atomic.AddInt64(&s.Releases, other.Releases)
	atomic.AddInt64(&s.Freed, other.Freed)
}

// NewBlock wraps data in a fresh block holding one reference, owned by the
// creating operator.
func NewBlock(data BlockData) *Block {
	return &Block{refs: 1, data: data}
}

// NewBlockStats creates a block and counts its allocation on st.
func NewBlockStats(data BlockData, st *BlockStats) *Block {
	if st != nil {
		atomic.AddInt64(&st.Allocated, 1)
	}
	return NewBlock(data)
}

// Kind returns KindBlock.
func (*Block) Kind() Kind { return KindBlock }

// String summarizes the block for timing listings and debugging. A block
// whose payload was recycled into a free list has nil data; String must stay
// safe on it because traces and panics may format dead blocks.
func (b *Block) String() string {
	data := b.data
	if data == nil {
		return fmt.Sprintf("block(recycled, %d refs)", atomic.LoadInt64(&b.refs))
	}
	return fmt.Sprintf("block(%T, %d words, %d refs)", data, data.Size(), atomic.LoadInt64(&b.refs))
}

// Data returns the payload for read-only access. Callers that intend to
// mutate must go through Writable.
func (b *Block) Data() BlockData { return b.data }

// Size returns the payload size in words (0 once the payload has been
// recycled).
func (b *Block) Size() int {
	if b.data == nil {
		return 0
	}
	return b.data.Size()
}

// Refs returns the current reference count (racy snapshot; exact only when
// the caller holds the sole reference or the run is quiescent).
func (b *Block) Refs() int64 { return atomic.LoadInt64(&b.refs) }

// Exclusive reports whether the caller holds the only reference, i.e. the
// block may be destructively modified in place.
func (b *Block) Exclusive() bool { return atomic.LoadInt64(&b.refs) == 1 }

// Retain adds a reference. The run-time system retains once per additional
// consumer when a value fans out along k > 1 graph edges.
func (b *Block) Retain(st *BlockStats) {
	atomic.AddInt64(&b.refs, 1)
	if st != nil {
		atomic.AddInt64(&st.Retains, 1)
	}
}

// Release drops a reference and reports whether this call freed the block
// (refcount reached zero). The count gates in-place mutation, and the
// zero-crossing is where the run-time system recycles the payload: an engine
// worker that frees a block hands its payload to its BlockPool (TakeData),
// and the next allocation of matching size may reuse the storage. Outside a
// worker nothing is recycled and Go's garbage collector reclaims it.
//
// Releases and, on the zero-crossing, Freed are counted on st.
func (b *Block) Release(st *BlockStats) bool {
	n := atomic.AddInt64(&b.refs, -1)
	if n < 0 {
		panic(fmt.Sprintf("delirium: block over-released (refs=%d)", n))
	}
	if st != nil {
		atomic.AddInt64(&st.Releases, 1)
	}
	if n == 0 {
		if st != nil {
			atomic.AddInt64(&st.Freed, 1)
		}
		return true
	}
	return false
}

// TakeData detaches the payload of a dead block (refcount 0) so it can be
// recycled through a free list. It returns nil for live blocks.
func (b *Block) TakeData() BlockData {
	if atomic.LoadInt64(&b.refs) != 0 {
		return nil
	}
	data := b.data
	b.data = nil
	return data
}

// Writable returns a block the caller may destructively modify, consuming
// the caller's reference to b. If the caller holds the sole reference the
// block itself is returned; otherwise the payload is deep-copied into a
// fresh exclusive block (copy-on-write) and the reference to b is released.
// The second result reports whether a copy was made.
func (b *Block) Writable(st *BlockStats) (*Block, bool) {
	if atomic.LoadInt64(&b.refs) == 1 {
		return b, false
	}
	// Allocated must be bumped *before* the source reference is dropped:
	// releasing first opens a window where a concurrent reader of a shared
	// sink sees Freed ahead of Allocated under fan-out.
	if st != nil {
		atomic.AddInt64(&st.Copies, 1)
		atomic.AddInt64(&st.Allocated, 1)
	}
	nb := NewBlock(b.data.Copy())
	b.Release(st)
	return nb, true
}

// Retain walks v and retains every block reachable through tuples. It is
// used when a produced value fans out to several consumers.
func Retain(v Value, st *BlockStats) {
	switch x := v.(type) {
	case *Block:
		x.Retain(st)
	case Tuple:
		for _, e := range x {
			Retain(e, st)
		}
	case *Closure:
		for _, e := range x.Env {
			Retain(e, st)
		}
	}
}

// Release walks v and releases every block reachable through tuples.
func Release(v Value, st *BlockStats) {
	switch x := v.(type) {
	case *Block:
		x.Release(st)
	case Tuple:
		for _, e := range x {
			Release(e, st)
		}
	case *Closure:
		for _, e := range x.Env {
			Release(e, st)
		}
	}
}

// Blocks appends every block reachable from v (through tuples and closure
// environments) to dst and returns the extended slice.
func Blocks(v Value, dst []*Block) []*Block {
	switch x := v.(type) {
	case *Block:
		dst = append(dst, x)
	case Tuple:
		for _, e := range x {
			dst = Blocks(e, dst)
		}
	case *Closure:
		for _, e := range x.Env {
			dst = Blocks(e, dst)
		}
	}
	return dst
}

// TotalSize returns the summed word size of every block reachable from v.
// The scheduler's data-affinity policy weighs input placement by size.
func TotalSize(v Value) int {
	total := 0
	switch x := v.(type) {
	case *Block:
		total += x.Size()
	case Tuple:
		for _, e := range x {
			total += TotalSize(e)
		}
	case *Closure:
		for _, e := range x.Env {
			total += TotalSize(e)
		}
	}
	return total
}
