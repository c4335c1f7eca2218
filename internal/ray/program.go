package ray

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/value"
)

// bandPiece is one row band of the render; piece 0 carries the scene for
// the merge. The world is read-only during tracing and the bands write
// disjoint image rows, so pieces never trigger copies.
type bandPiece struct {
	idx    int
	r0, r1 int
	scene  *Scene
	world  *Scene // read-only view for tracing (same object as scene)
	tests  int64
}

// programSrc is the coordination framework: one static fork/join.
const programSrc = `
main()
  let scene = rt_setup()
      <a,b,c,d> = rt_split(scene)
      ao = rt_trace(a)
      bo = rt_trace(b)
      co = rt_trace(c)
      do = rt_trace(d)
  in rt_merge(ao,bo,co,do)
`

// Source returns the Delirium program text.
func Source() string { return programSrc }

// Operators builds the ray-tracing operator registry for cfg.
func Operators(cfg Config) (*operator.Registry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := operator.NewRegistry(operator.Builtins())

	r.MustRegister(&operator.Operator{
		Name: "rt_setup", Arity: 0,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			s := NewScene(cfg)
			ctx.Charge(int64(s.Words()))
			return value.NewBlockStats(ctx.Pool().Opaque(s, s.Words()), ctx.BlockStats()), nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "rt_split", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := sceneOf(args[0], "rt_split")
			if err != nil {
				return nil, err
			}
			ctx.Charge(Bands)
			out := make(value.Tuple, Bands)
			for i := 0; i < Bands; i++ {
				r0, r1 := Band(cfg.H, i)
				bp := &bandPiece{idx: i, r0: r0, r1: r1, world: s}
				if i == 0 {
					bp.scene = s
				}
				out[i] = value.NewBlockStats(ctx.Pool().Opaque(bp, (r1-r0)*cfg.W*3), ctx.BlockStats())
			}
			return out, nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "rt_trace", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			bp, err := bandOf(args[0], "rt_trace")
			if err != nil {
				return nil, err
			}
			bp.tests = bp.world.RenderRows(bp.r0, bp.r1)
			ctx.Charge(bp.tests)
			return args[0], nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "rt_merge", Arity: Bands, Destructive: []bool{true, true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			var s *Scene
			var tests [Bands]int64
			for i, a := range args {
				bp, err := bandOf(a, "rt_merge")
				if err != nil {
					return nil, err
				}
				if bp.scene != nil {
					s = bp.scene
				}
				if bp.idx < 0 || bp.idx >= Bands {
					return nil, fmt.Errorf("rt_merge: band index %d out of range", bp.idx)
				}
				tests[bp.idx] = bp.tests
				_ = i
			}
			if s == nil {
				return nil, fmt.Errorf("rt_merge: no band carried the scene")
			}
			// Accumulate work counts in band order for determinism.
			for _, t := range tests {
				s.Tests += t
			}
			ctx.Charge(Bands)
			return value.NewBlockStats(ctx.Pool().Opaque(s, s.Words()), ctx.BlockStats()), nil
		},
	})

	return r, nil
}

func sceneOf(v value.Value, what string) (*Scene, error) {
	p, err := opaqueOf(v, what)
	if err != nil {
		return nil, err
	}
	s, ok := p.(*Scene)
	if !ok {
		return nil, fmt.Errorf("%s: expected scene, got %T", what, p)
	}
	return s, nil
}

func bandOf(v value.Value, what string) (*bandPiece, error) {
	p, err := opaqueOf(v, what)
	if err != nil {
		return nil, err
	}
	bp, ok := p.(*bandPiece)
	if !ok {
		return nil, fmt.Errorf("%s: expected band piece, got %T", what, p)
	}
	return bp, nil
}

func opaqueOf(v value.Value, what string) (interface{}, error) {
	if v == nil {
		return nil, fmt.Errorf("%s: missing block argument", what)
	}
	b, ok := v.(*value.Block)
	if !ok {
		return nil, fmt.Errorf("%s: block argument required, got %s", what, v.Kind())
	}
	o, ok := b.Data().(*value.Opaque)
	if !ok {
		return nil, fmt.Errorf("%s: unexpected payload %T", what, b.Data())
	}
	return o.Payload, nil
}

// ExtractScene unwraps a program result.
func ExtractScene(v value.Value) (*Scene, error) { return sceneOf(v, "result") }

// CompileProgram compiles the coordination program against cfg's operators.
func CompileProgram(cfg Config) (*graph.Program, error) {
	reg, err := Operators(cfg)
	if err != nil {
		return nil, err
	}
	res, err := compile.Compile("raytrace.dlr", Source(), compile.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

// Run compiles and renders, returning the scene and the engine.
func Run(cfg Config, ecfg runtime.Config) (*Scene, *runtime.Engine, error) {
	prog, err := CompileProgram(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := runtime.New(prog, ecfg)
	out, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	s, err := ExtractScene(out)
	if err != nil {
		return nil, nil, err
	}
	return s, eng, nil
}
