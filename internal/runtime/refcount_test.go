package runtime

import (
	"fmt"
	"testing"

	"repro/internal/operator"
	"repro/internal/value"
)

// settleCase is one reference-settle scenario: build allocates the node's
// inputs and result against st and returns the blocks involved; refs are
// those blocks' expected reference counts once the node has settled, and
// freed the number of blocks it freed.
type settleCase struct {
	build func(st *value.BlockStats) (ins []value.Value, result value.Value, blocks []*value.Block)
	refs  []int64
	freed int64
}

func newSettleBlock(st *value.BlockStats) *value.Block {
	return value.NewBlockStats(value.FloatVec{1}, st)
}

var settleCases = map[string]settleCase{
	// Operator returned its input unchanged: the reference transfers.
	"pass-through": {func(st *value.BlockStats) ([]value.Value, value.Value, []*value.Block) {
		b := newSettleBlock(st)
		return []value.Value{b}, b, []*value.Block{b}
	}, []int64{1}, 0},
	// Operator consumed the block and returned an atom: released, freed.
	"consumed": {func(st *value.BlockStats) ([]value.Value, value.Value, []*value.Block) {
		b := newSettleBlock(st)
		return []value.Value{b, value.Int(3)}, value.Int(7), []*value.Block{b}
	}, []int64{0}, 1},
	// Operator consumed in and produced a fresh block: in released, out
	// keeps its NewBlock reference.
	"new block": {func(st *value.BlockStats) ([]value.Value, value.Value, []*value.Block) {
		in, out := newSettleBlock(st), newSettleBlock(st)
		return []value.Value{in}, out, []*value.Block{in, out}
	}, []int64{0, 1}, 1},
	// Operator returned the same input block twice: one transfer plus one
	// fresh reference.
	"duplicated in result": {func(st *value.BlockStats) ([]value.Value, value.Value, []*value.Block) {
		b := newSettleBlock(st)
		return []value.Value{b}, value.Tuple{b, b}, []*value.Block{b}
	}, []int64{2}, 0},
	// A fresh block appearing twice in the result needs one extra reference
	// beyond NewBlock's initial one.
	"new block duplicated": {func(st *value.BlockStats) ([]value.Value, value.Value, []*value.Block) {
		out := newSettleBlock(st)
		return nil, value.Tuple{out, out}, []*value.Block{out}
	}, []int64{2}, 0},
	// A block delivered on two input ports holds two references; the result
	// keeps one occurrence: one transfers, one releases.
	"fan-in of the same block": {func(st *value.BlockStats) ([]value.Value, value.Value, []*value.Block) {
		b := newSettleBlock(st)
		b.Retain(st)
		return []value.Value{b, b}, b, []*value.Block{b}
	}, []int64{1}, 0},
	// 65 result occurrences, more than the linear scan takes: an input
	// passed through twice beside 63 fresh blocks.
	"65 blocks": {func(st *value.BlockStats) ([]value.Value, value.Value, []*value.Block) {
		b := newSettleBlock(st)
		res, blocks := value.Tuple{b, b}, []*value.Block{b}
		for len(res) < settleMax+1 {
			nb := newSettleBlock(st)
			res, blocks = append(res, nb), append(blocks, nb)
		}
		return []value.Value{b}, res, blocks
	}, append([]int64{2}, ones(settleMax-1)...), 0},
}

func ones(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// checkSettle runs one case through the linear settleRefs and through the
// map-based transferRefs, each on fresh blocks, and requires both to leave
// the expected reference counts and identical BlockStats. settleRefs counts
// into the worker's shard, so its counts are read once fold has added the
// shard to the engine's Stats.Blocks, where the case allocated. It reports
// whether settleRefs took its fallback (its claim scratch never grew).
func checkSettle(t *testing.T, name string) (fallback bool) {
	t.Helper()
	c := settleCases[name]
	w := &worker{e: &Engine{}}
	ins, result, linear := c.build(&w.e.stats.Blocks)
	w.settleRefs(ins, result)
	w.fold()
	var st value.BlockStats
	ins, result, mapped := c.build(&st)
	transferRefs(ins, result, &st)
	for i, want := range c.refs {
		if got, fb := linear[i].Refs(), mapped[i].Refs(); got != want || fb != want {
			t.Errorf("%s: block %d Refs = %d (settleRefs), %d (transferRefs); want %d", name, i, got, fb, want)
		}
	}
	if w.e.stats.Blocks != st {
		t.Errorf("%s: BlockStats %+v (settleRefs) != %+v (transferRefs)", name, w.e.stats.Blocks, st)
	}
	if st.Freed != c.freed {
		t.Errorf("%s: Freed = %d, want %d", name, st.Freed, c.freed)
	}
	return cap(w.settleClaims) == 0
}

func TestTransferRefsPassThrough(t *testing.T)        { checkSettle(t, "pass-through") }
func TestTransferRefsConsumed(t *testing.T)           { checkSettle(t, "consumed") }
func TestTransferRefsNewBlock(t *testing.T)           { checkSettle(t, "new block") }
func TestTransferRefsDuplicatedInResult(t *testing.T) { checkSettle(t, "duplicated in result") }
func TestTransferRefsNewBlockDuplicated(t *testing.T) { checkSettle(t, "new block duplicated") }
func TestTransferRefsFanInSameBlock(t *testing.T)     { checkSettle(t, "fan-in of the same block") }

// TestSettleRefsFallback: past settleMax blocks settleRefs hands over to the
// map-based transferRefs, with the same outcome.
func TestSettleRefsFallback(t *testing.T) {
	if !checkSettle(t, "65 blocks") {
		t.Error("a 65-block result took the linear scan, want the map fallback")
	}
	if checkSettle(t, "duplicated in result") {
		t.Error("a one-block node took the map fallback, want the linear scan")
	}
}

// leakCheck runs a program and verifies that every allocated block was
// released except those still reachable from the result value.
func leakCheck(t *testing.T, src string, reg *operator.Registry, cfg Config, args ...value.Value) value.Value {
	t.Helper()
	g := compile(t, src, reg)
	e := New(g, cfg)
	v, err := e.Run(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	live := int64(len(value.Blocks(v, nil)))
	st := &e.Stats().Blocks
	if st.Allocated-st.Freed != live {
		t.Errorf("block leak: allocated %d, freed %d, reachable from result %d",
			st.Allocated, st.Freed, live)
	}
	// Every reachable block must hold at least one reference.
	for _, b := range value.Blocks(v, nil) {
		if b.Refs() < 1 {
			t.Errorf("result block over-released: %v", b)
		}
	}
	return v
}

// blockOps is a registry with operators that create, transform, consume,
// and duplicate blocks in various shapes, for leak testing.
func blockOps() *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())
	r.MustRegister(&operator.Operator{
		Name: "mkblock", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			n := int(args[0].(value.Int))
			return value.NewBlockStats(make(value.FloatVec, n), ctx.BlockStats()), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "blocksum", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			b, ok := args[0].(*value.Block)
			if !ok {
				return nil, fmt.Errorf("blocksum: want block")
			}
			var s float64
			for _, x := range b.Data().(value.FloatVec) {
				s += x
			}
			ctx.Charge(int64(b.Size()))
			return value.Float(s), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "fill", Arity: 2, Destructive: []bool{true, false},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			b := args[0].(*value.Block)
			x := float64(args[1].(value.Int))
			vec := b.Data().(value.FloatVec)
			for i := range vec {
				vec[i] = x
			}
			ctx.Charge(int64(len(vec)))
			return args[0], nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "dup", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			return value.Tuple{args[0], args[0]}, nil
		},
	})
	return r
}

func TestNoLeakSimpleConsume(t *testing.T) {
	leakCheck(t, "main() blocksum(fill(mkblock(64), 3))", blockOps(),
		Config{Mode: Real, Workers: 2, MaxOps: 100000})
}

func TestNoLeakFanOut(t *testing.T) {
	// A block used by several readers; none destructive.
	src := `
main()
  let b = mkblock(32)
      f = fill(b, 2)
      s1 = blocksum(f)
      s2 = blocksum(f)
  in add(s1, s2)
`
	// f fans out to two consumers; blocksum reads without consuming
	// ownership of... blocksum does consume its reference (block not in
	// result). Both paths release.
	leakCheck(t, src, blockOps(), Config{Mode: Real, Workers: 4, MaxOps: 100000})
}

func TestCopyOnWriteWhenShared(t *testing.T) {
	// Two destructive writers share one block. The result is determined
	// (§8); how many copies it takes is not, in Real mode: both writers may
	// find the block shared before either releases it, and then each copies.
	// The simulated machine's schedule is fixed, and there exactly one copies.
	src := `
main()
  let b = mkblock(16)
      w1 = fill(b, 1)
      w2 = fill(b, 2)
  in add(blocksum(w1), blocksum(w2))
`
	g := compile(t, src, blockOps())
	for _, cfg := range []Config{
		{Mode: Simulated, Workers: 4, MaxOps: 100000},
		{Mode: Real, Workers: 4, MaxOps: 100000},
	} {
		e := New(g, cfg)
		v, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Determinism despite the shared writer: 16*1 + 16*2.
		if v != value.Float(48) {
			t.Errorf("mode %v: result = %v, want 48", cfg.Mode, v)
		}
		st := e.Stats().Blocks
		switch copies := st.Copies; {
		case cfg.Mode == Simulated && copies != 1:
			t.Errorf("Simulated: Copies = %d, want exactly 1", copies)
		case cfg.Mode == Real && (copies < 1 || copies > 2):
			t.Errorf("Real: Copies = %d, want 1 or 2", copies)
		}
		if st.Allocated != st.Freed {
			t.Errorf("mode %v: block leak: allocated %d freed %d", cfg.Mode, st.Allocated, st.Freed)
		}
	}
}

func TestCopyOnWriteDeterministicAcrossRuns(t *testing.T) {
	src := `
main()
  let b = mkblock(8)
      w1 = fill(b, 5)
      w2 = fill(b, 9)
  in sub(blocksum(w1), blocksum(w2))
`
	g := compile(t, src, blockOps())
	var want value.Value
	for trial := 0; trial < 20; trial++ {
		e := New(g, Config{Mode: Real, Workers: 4, MaxOps: 100000})
		v, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = v
		} else if !value.Equal(v, want) {
			t.Fatalf("trial %d: %v != %v (nondeterministic despite CoW)", trial, v, want)
		}
	}
	if want != value.Float(8*5-8*9) {
		t.Errorf("result = %v, want %v", want, 8*5-8*9)
	}
}

func TestNoLeakTupleSpread(t *testing.T) {
	reg := blockOps()
	reg.MustRegister(&operator.Operator{
		Name: "pairblocks", Arity: 0,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			return value.Tuple{
				value.NewBlockStats(value.FloatVec{1, 2}, ctx.BlockStats()),
				value.NewBlockStats(value.FloatVec{3}, ctx.BlockStats()),
				value.NewBlockStats(value.FloatVec{4, 5, 6}, ctx.BlockStats()),
			}, nil
		},
	})
	// Only two of three elements are decomposed: the spread designee must
	// release the third.
	src := `
main()
  let <a, b> = pairblocks()
  in add(blocksum(a), blocksum(b))
`
	leakCheck(t, src, reg, Config{Mode: Real, Workers: 2, MaxOps: 100000})
}

func TestSpreadKeepsPiecesExclusive(t *testing.T) {
	reg := blockOps()
	reg.MustRegister(&operator.Operator{
		Name: "fourblocks", Arity: 0,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			out := make(value.Tuple, 4)
			for i := range out {
				out[i] = value.NewBlockStats(make(value.FloatVec, 8), ctx.BlockStats())
			}
			return out, nil
		},
	})
	src := `
main()
  let <a, b, c, d> = fourblocks()
      ra = fill(a, 1)
      rb = fill(b, 2)
      rc = fill(c, 3)
      rd = fill(d, 4)
  in add(add(blocksum(ra), blocksum(rb)), add(blocksum(rc), blocksum(rd)))
`
	for trial := 0; trial < 10; trial++ {
		g := compile(t, src, reg)
		e := New(g, Config{Mode: Real, Workers: 4, MaxOps: 100000})
		v, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if v != value.Float(8*1+8*2+8*3+8*4) {
			t.Fatalf("result = %v", v)
		}
		if copies := e.Stats().Blocks.Copies; copies != 0 {
			t.Fatalf("trial %d: %d copies; decomposition pieces must stay exclusive", trial, copies)
		}
	}
}

// closureEnvBlocks captures a block in two closure environments and calls
// through a dynamically chosen function value, so the closure call sites
// stay CallClosureNodes: each call retains the environment for the callee
// and releases the closure.
const closureEnvBlocks = `
main(n)
  let b = fill(mkblock(8), n)
      f1(i) add(float(i), blocksum(b))
      f2(i) add(float(mul(i, 2)), blocksum(b))
      g = if lt(n, 100) then f1 else f2
  in add(g(1), g(2))
`

func TestNoLeakThroughClosures(t *testing.T) {
	src := `
main()
  let b = mkblock(16)
      f = fill(b, 1)
      use(x) blocksum(x)
  in use(f)
`
	leakCheck(t, src, blockOps(), Config{Mode: Real, Workers: 2, MaxOps: 100000})
	for _, mode := range []Mode{Real, Simulated} {
		for _, workers := range []int{1, 2, 8} {
			cfg := Config{Mode: mode, Workers: workers, MaxOps: 100000}
			// 1 + 24 + 2 + 24: both calls go through f1 and read b = 8 x 3.
			if v := leakCheck(t, closureEnvBlocks, blockOps(), cfg, value.Int(3)); v != value.Float(51) {
				t.Errorf("closure env, mode %v workers %d: result = %v, want 51", mode, workers, v)
			}
		}
	}
}

func TestNoLeakInLoops(t *testing.T) {
	// A block is rebuilt every loop iteration; all intermediates freed.
	src := `
main(n)
  iterate
  {
    i = 0, incr(i)
    total = 0.0, add(total, blocksum(fill(mkblock(8), i)))
  } while lt(i, n),
  result total
`
	leakCheck(t, src, blockOps(), Config{Mode: Real, Workers: 2, MaxOps: 1000000}, value.Int(50))
}

func TestNoLeakConditionalArms(t *testing.T) {
	// Blocks flow into a conditional; only one arm consumes them, but the
	// untaken arm's inputs must still be released.
	src := `
main(flag)
  let b = fill(mkblock(4), 7)
  in if flag then blocksum(b) else 0.0
`
	leakCheck(t, src, blockOps(), Config{Mode: Real, Workers: 2, MaxOps: 100000}, value.Bool(true))
	leakCheck(t, src, blockOps(), Config{Mode: Real, Workers: 2, MaxOps: 100000}, value.Bool(false))
}

func TestResultBlockSurvives(t *testing.T) {
	src := "main() fill(mkblock(4), 2)"
	g := compile(t, src, blockOps())
	e := New(g, Config{Mode: Real, Workers: 1})
	v, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, ok := v.(*value.Block)
	if !ok {
		t.Fatalf("result = %v", v)
	}
	if b.Refs() != 1 {
		t.Errorf("result block Refs = %d, want 1 (owned by caller)", b.Refs())
	}
	if b.Data().(value.FloatVec)[0] != 2 {
		t.Error("result payload wrong")
	}
}
