package value

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewBlockStartsExclusive(t *testing.T) {
	b := NewBlock(FloatVec{1, 2, 3})
	if !b.Exclusive() {
		t.Error("fresh block must be exclusive")
	}
	if b.Refs() != 1 {
		t.Errorf("Refs = %d, want 1", b.Refs())
	}
	if b.Size() != 3 {
		t.Errorf("Size = %d, want 3", b.Size())
	}
}

// TestBlockHeaderSize pins the header at the count and the payload: 24
// bytes, which Go serves from its 24-byte size class. One more word would
// move every block up to the 32-byte class.
func TestBlockHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Block{}) = %d, want 24 (the 24-byte size class)", got)
	}
}

func TestRetainReleaseCounts(t *testing.T) {
	var st BlockStats
	b := NewBlockStats(FloatVec{1}, &st)
	b.Retain(&st)
	b.Retain(&st)
	if b.Refs() != 3 || b.Exclusive() {
		t.Fatalf("Refs = %d after two retains, want 3", b.Refs())
	}
	b.Release(&st)
	b.Release(&st)
	if !b.Exclusive() {
		t.Fatal("should be exclusive after releases")
	}
	b.Release(&st)
	if st.Allocated != 1 || st.Retains != 2 || st.Releases != 3 || st.Freed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-release must panic")
		}
	}()
	b := NewBlock(FloatVec{1})
	b.Release(nil)
	b.Release(nil)
}

func TestWritableExclusiveNoCopy(t *testing.T) {
	var st BlockStats
	b := NewBlockStats(FloatVec{1, 2}, &st)
	w, copied := b.Writable(&st)
	if copied {
		t.Error("exclusive block must not be copied")
	}
	if w != b {
		t.Error("exclusive Writable must return the same block")
	}
	if st.Copies != 0 {
		t.Errorf("Copies = %d, want 0", st.Copies)
	}
}

func TestWritableSharedCopies(t *testing.T) {
	var st BlockStats
	b := NewBlockStats(FloatVec{1, 2}, &st)
	b.Retain(&st) // a second consumer holds a reference
	w, copied := b.Writable(&st)
	if !copied {
		t.Fatal("shared block must be copied")
	}
	if w == b {
		t.Fatal("copy must be a distinct block")
	}
	if !w.Exclusive() {
		t.Error("copy must be exclusive")
	}
	if b.Refs() != 1 {
		t.Errorf("original Refs = %d after CoW, want 1 (other consumer)", b.Refs())
	}
	// Mutating the copy must not affect the original (determinism).
	w.Data().(FloatVec)[0] = 99
	if b.Data().(FloatVec)[0] != 1 {
		t.Error("copy-on-write leaked mutation into original")
	}
	if st.Copies != 1 {
		t.Errorf("Copies = %d, want 1", st.Copies)
	}
}

func TestConcurrentRetainRelease(t *testing.T) {
	var st BlockStats
	b := NewBlockStats(FloatVec{1}, &st)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Retain(&st)
				b.Release(&st)
			}
		}()
	}
	wg.Wait()
	if b.Refs() != 1 {
		t.Errorf("Refs = %d after balanced concurrent ops, want 1", b.Refs())
	}
}

func TestRetainReleaseWalkTuples(t *testing.T) {
	var st BlockStats
	b1 := NewBlockStats(FloatVec{1}, &st)
	b2 := NewBlockStats(IntVec{2}, &st)
	v := Tuple{b1, Tuple{b2, Int(5)}, Str("x")}
	Retain(v, &st)
	if b1.Refs() != 2 || b2.Refs() != 2 {
		t.Fatalf("refs after tuple Retain: %d, %d; want 2, 2", b1.Refs(), b2.Refs())
	}
	Release(v, &st)
	Release(v, &st)
	if b1.Refs() != 0 || b2.Refs() != 0 {
		t.Fatalf("refs after releases: %d, %d; want 0, 0", b1.Refs(), b2.Refs())
	}
}

func TestRetainWalksClosureEnv(t *testing.T) {
	b := NewBlock(FloatVec{1})
	c := &Closure{Env: []Value{b}}
	Retain(c, nil)
	if b.Refs() != 2 {
		t.Errorf("Refs = %d after closure Retain, want 2", b.Refs())
	}
	Release(c, nil)
	if b.Refs() != 1 {
		t.Errorf("Refs = %d after closure Release, want 1", b.Refs())
	}
}

func TestBlocksCollector(t *testing.T) {
	b1 := NewBlock(FloatVec{1})
	b2 := NewBlock(FloatVec{2, 3})
	v := Tuple{Int(1), b1, Tuple{b2}, &Closure{Env: []Value{b1}}}
	got := Blocks(v, nil)
	if len(got) != 3 {
		t.Fatalf("Blocks found %d, want 3 (b1 twice via closure)", len(got))
	}
	if TotalSize(v) != 1+2+1 {
		t.Errorf("TotalSize = %d, want 4", TotalSize(v))
	}
}

func TestFloatGrid(t *testing.T) {
	g := NewFloatGrid(3, 4)
	g.Set(1, 2, 7.5)
	if g.At(1, 2) != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", g.At(1, 2))
	}
	if len(g.Row(1)) != 4 || g.Row(1)[2] != 7.5 {
		t.Errorf("Row(1) = %v", g.Row(1))
	}
	cp := g.Copy().(*FloatGrid)
	cp.Set(1, 2, 0)
	if g.At(1, 2) != 7.5 {
		t.Error("grid Copy must be deep")
	}
	sub := g.SubGrid(1, 3)
	if sub.Rows != 2 || sub.Cols != 4 || sub.At(0, 2) != 7.5 {
		t.Errorf("SubGrid wrong: %+v", sub)
	}
	sub.Set(0, 2, 1)
	if g.At(1, 2) != 7.5 {
		t.Error("SubGrid must copy cells")
	}
}

func TestFloatGridBounds(t *testing.T) {
	g := NewFloatGrid(2, 2)
	for _, fn := range []func(){
		func() { g.SubGrid(-1, 1) },
		func() { g.SubGrid(0, 3) },
		func() { g.SubGrid(2, 1) },
		func() { NewFloatGrid(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range grid op")
				}
			}()
			fn()
		}()
	}
}

func TestVecCopiesAreDeep(t *testing.T) {
	fv := FloatVec{1, 2}
	fc := fv.Copy().(FloatVec)
	fc[0] = 9
	if fv[0] != 1 {
		t.Error("FloatVec.Copy must be deep")
	}
	iv := IntVec{3, 4}
	ic := iv.Copy().(IntVec)
	ic[1] = 9
	if iv[1] != 4 {
		t.Error("IntVec.Copy must be deep")
	}
}

func TestOpaqueCopy(t *testing.T) {
	type board struct{ cells []int }
	orig := &board{cells: []int{1, 2}}
	o := &Opaque{
		Payload: orig,
		Words:   2,
		CopyFunc: func(p interface{}) interface{} {
			b := p.(*board)
			nc := make([]int, len(b.cells))
			copy(nc, b.cells)
			return &board{cells: nc}
		},
	}
	cp := o.Copy().(*Opaque)
	cp.Payload.(*board).cells[0] = 99
	if orig.cells[0] != 1 {
		t.Error("Opaque.Copy must invoke CopyFunc deeply")
	}
	if cp.Size() != 2 {
		t.Errorf("copy Size = %d, want 2", cp.Size())
	}
	imm := &Opaque{Payload: orig, Words: 5}
	cp2 := imm.Copy().(*Opaque)
	if cp2.Payload != interface{}(orig) {
		t.Error("nil CopyFunc shares the payload")
	}
}

func TestWritablePropertyRefcountInvariant(t *testing.T) {
	// Property: after Writable, the returned block is always exclusive and a
	// copy happens iff the block was shared.
	f := func(extraRefs uint8) bool {
		var st BlockStats
		b := NewBlockStats(FloatVec{1, 2, 3}, &st)
		n := int(extraRefs % 5)
		for i := 0; i < n; i++ {
			b.Retain(&st)
		}
		w, copied := b.Writable(&st)
		if !w.Exclusive() {
			return false
		}
		return copied == (n > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
