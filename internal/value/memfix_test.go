package value

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The accounting contract: every counter goes to the sink passed at the call
// site that did the work. Freed lands on the sink of the release that drops
// the last reference, which need not be the one that counted Allocated, and a
// nil sink counts nothing. Allocated == Freed is a property of a run's sinks
// summed (TestCrossShardLastReleaseAccounting), not of any one of them.
func TestReleaseNilStatsFreedAccounting(t *testing.T) {
	var st BlockStats
	b := NewBlockStats(FloatVec{1}, &st)
	b.Retain(&st)
	if b.Release(nil) {
		t.Fatal("first release freed a twice-referenced block")
	}
	if !b.Release(nil) {
		t.Fatal("last release did not report freeing")
	}
	if st.Freed != 0 || st.Releases != 0 {
		t.Fatalf("nil-sink releases counted Freed = %d, Releases = %d on the allocating sink, want 0 and 0",
			st.Freed, st.Releases)
	}

	// A different sink at the last release: Freed lands there, with the
	// call site's Releases.
	var other BlockStats
	c := NewBlockStats(FloatVec{1}, &st)
	c.Release(&other)
	if st.Freed != 0 || other.Freed != 1 {
		t.Fatalf("Freed: allocating sink=%d releasing sink=%d, want 0 and 1", st.Freed, other.Freed)
	}
	if other.Releases != 1 {
		t.Fatalf("other.Releases = %d, want 1", other.Releases)
	}

	// Bare NewBlock counts no allocation; its last release still counts Freed
	// on the call site's sink.
	var site BlockStats
	NewBlock(FloatVec{1}).Release(&site)
	if site.Freed != 1 {
		t.Fatalf("bare block: Freed = %d, want 1", site.Freed)
	}
}

// TestCrossShardLastReleaseAccounting is the runtime's pattern in miniature:
// each worker counts into its own shard, blocks allocated on one worker are
// last released on another, and every shard folds into the run's total as its
// worker leaves. Worker w allocates (w+1)·blocks and frees its predecessor's,
// so no single shard balances; the folded total must. Run with -race: each
// shard is written by one goroutine only, and the fold is the one shared
// write.
func TestCrossShardLastReleaseAccounting(t *testing.T) {
	const workers = 4
	const blocks = 100
	var total BlockStats
	handoff := make([]chan *Block, workers)
	for i := range handoff {
		handoff[i] = make(chan *Block, workers*blocks)
	}
	shards := make([]BlockStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &shards[w]
			next := handoff[(w+1)%workers]
			for i := 0; i < (w+1)*blocks; i++ {
				b := NewBlockStats(FloatVec{float64(i)}, st)
				b.Retain(st)
				b.Release(st)
				next <- b // the last reference crosses to the next worker
			}
			prev := (w + workers - 1) % workers
			for i := 0; i < (prev+1)*blocks; i++ {
				if !(<-handoff[w]).Release(st) {
					t.Error("handed-off block survived its last release")
				}
			}
			total.Add(*st) // the worker leaves the run
		}(w)
	}
	wg.Wait()
	for w := range shards {
		prev := (w + workers - 1) % workers
		if shards[w].Allocated != int64((w+1)*blocks) || shards[w].Freed != int64((prev+1)*blocks) {
			t.Errorf("shard %d: Allocated %d, Freed %d, want %d and %d",
				w, shards[w].Allocated, shards[w].Freed, (w+1)*blocks, (prev+1)*blocks)
		}
	}
	const all = workers * (workers + 1) / 2 * blocks
	if total.Allocated != all || total.Allocated != total.Freed {
		t.Fatalf("folded: Allocated %d, Freed %d, want %d each", total.Allocated, total.Freed, all)
	}
	if total.Retains != total.Releases-total.Freed {
		t.Fatalf("folded: Retains %d, Releases %d, Freed %d: one release per retain plus one per free",
			total.Retains, total.Releases, total.Freed)
	}
}

// Writable must bump Allocated before it releases the source reference:
// releasing first opens a window where a concurrent counter reader sees
// Freed ahead of Allocated. Run with -race; the sampler also asserts the
// ordering invariant directly.
func TestWritableConcurrentFanOutAccounting(t *testing.T) {
	const goroutines = 8
	const rounds = 200
	var st BlockStats
	for round := 0; round < rounds; round++ {
		b := NewBlockStats(FloatVec{1, 2, 3, 4}, &st)
		for i := 1; i < goroutines; i++ {
			b.Retain(&st)
		}
		var stop atomic.Bool
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for !stop.Load() {
				// Load Freed first: if Freed <= Allocated ever fails, a
				// Writable released its source before accounting the copy.
				freed := atomic.LoadInt64(&st.Freed)
				alloc := atomic.LoadInt64(&st.Allocated)
				if freed > alloc {
					t.Errorf("Freed %d > Allocated %d", freed, alloc)
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, _ := b.Writable(&st)
				if !w.Exclusive() {
					t.Error("Writable returned a shared block")
				}
				w.Release(&st)
			}()
		}
		wg.Wait()
		stop.Store(true)
		sampler.Wait()
	}
	if st.Allocated != st.Freed {
		t.Fatalf("quiescent: Allocated %d != Freed %d", st.Allocated, st.Freed)
	}
}

func TestStringSafeOnRecycledBlock(t *testing.T) {
	var st BlockStats
	b := NewBlockStats(FloatVec{1, 2}, &st)
	if !b.Release(&st) || b.TakeData() == nil {
		t.Fatal("the last release must let TakeData detach the payload")
	}
	s := b.String()
	if !strings.Contains(s, "recycled") {
		t.Fatalf("String() on recycled block = %q", s)
	}
	if b.Size() != 0 {
		t.Fatalf("Size() on recycled block = %d, want 0", b.Size())
	}
}

func TestTakeDataOnlyWhenDead(t *testing.T) {
	b := NewBlock(FloatVec{1})
	if d := b.TakeData(); d != nil {
		t.Fatal("TakeData on a live block must return nil")
	}
	b.Release(nil)
	if d := b.TakeData(); d == nil {
		t.Fatal("TakeData on a dead block must detach the payload")
	}
	if d := b.TakeData(); d != nil {
		t.Fatal("second TakeData must return nil")
	}
}
