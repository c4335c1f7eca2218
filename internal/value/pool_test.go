package value

import "testing"

func TestPoolClassRounding(t *testing.T) {
	cases := []struct{ words, class int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := poolClass(c.words); got != c.class {
			t.Errorf("poolClass(%d) = %d, want %d", c.words, got, c.class)
		}
	}
}

func TestPoolRecyclesMatchingType(t *testing.T) {
	var p BlockPool
	v := make(FloatVec, 8)
	v[3] = 42
	p.Put(v)
	if p.Puts() != 1 {
		t.Fatalf("Puts = %d, want 1", p.Puts())
	}
	// An Ints request of the same class must not get the FloatVec.
	iv := p.Ints(8)
	if p.Hits() != 0 {
		t.Fatal("Ints must not be served from a FloatVec entry")
	}
	_ = iv
	// A Floats request reuses it, zeroed.
	fv := p.Floats(8)
	if p.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", p.Hits())
	}
	for i, x := range fv {
		if x != 0 {
			t.Fatalf("recycled FloatVec not zeroed at %d: %v", i, x)
		}
	}
	if len(fv) != 8 {
		t.Fatalf("len = %d, want 8", len(fv))
	}
}

func TestPoolOpaqueShellReuse(t *testing.T) {
	var p BlockPool
	o := &Opaque{Payload: "old", Words: 16, CopyFunc: func(x interface{}) interface{} { return x }}
	p.Put(o)
	if o.Payload != nil || o.CopyFunc != nil {
		t.Fatalf("pooled shell still references its dead payload: %+v", o)
	}
	got := p.Opaque("new", 16)
	if got != o {
		t.Fatal("expected the recycled Opaque shell")
	}
	if got.Payload != "new" || got.Words != 16 || got.CopyFunc != nil {
		t.Fatalf("shell not fully overwritten: %+v", got)
	}
	if p.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", p.Hits())
	}
}

func TestPoolGridReuseZeroesAndResizes(t *testing.T) {
	var p BlockPool
	g := NewFloatGrid(4, 8)
	g.Set(2, 2, 7)
	p.Put(g)
	// Same cell count, different shape: reusable, reshaped, zeroed.
	got := p.Grid(8, 4)
	if p.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", p.Hits())
	}
	if got.Rows != 8 || got.Cols != 4 {
		t.Fatalf("shape %dx%d, want 8x4", got.Rows, got.Cols)
	}
	for i, v := range got.Cells {
		if v != 0 {
			t.Fatalf("recycled grid not zeroed at %d: %v", i, v)
		}
	}
}

func TestPoolClassCap(t *testing.T) {
	var p BlockPool
	for i := 0; i < poolClassCap+10; i++ {
		p.Put(make(FloatVec, 8))
	}
	if p.Puts() != poolClassCap {
		t.Fatalf("Puts = %d, want cap %d", p.Puts(), poolClassCap)
	}
}

func TestPoolRejectsUnknownPayloads(t *testing.T) {
	var p BlockPool
	p.Put(nil)
	p.Put(floatGridRowView{}) // not a recyclable type
	if p.Puts() != 0 {
		t.Fatalf("Puts = %d, want 0", p.Puts())
	}
}

// floatGridRowView is a throwaway BlockData the pool must reject.
type floatGridRowView struct{}

func (floatGridRowView) Copy() BlockData { return floatGridRowView{} }
func (floatGridRowView) Size() int       { return 4 }

func TestPoolNilReceiverAllocates(t *testing.T) {
	var p *BlockPool
	p.Put(make(FloatVec, 4)) // no-op, no panic
	if v := p.Floats(4); len(v) != 4 {
		t.Fatal("nil pool Floats must allocate")
	}
	if v := p.Ints(4); len(v) != 4 {
		t.Fatal("nil pool Ints must allocate")
	}
	if g := p.Grid(2, 2); g.Rows != 2 || g.Cols != 2 {
		t.Fatal("nil pool Grid must allocate")
	}
	if o := p.Opaque("x", 4); o == nil || o.Payload != "x" {
		t.Fatal("nil pool Opaque must allocate")
	}
	if p.Hits() != 0 || p.Puts() != 0 {
		t.Fatal("nil pool counters must read zero")
	}
}

func TestPoolCapacityMismatchFallsThrough(t *testing.T) {
	var p BlockPool
	p.Put(make(FloatVec, 5)) // class 3 (rounds to 8)
	// Same class but larger length than capacity: must allocate fresh.
	v := p.Floats(8)
	if len(v) != 8 {
		t.Fatalf("len = %d, want 8", len(v))
	}
	if p.Hits() != 0 {
		t.Fatal("a too-small recycled vector must not be reused")
	}
}
