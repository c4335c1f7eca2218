package circuit

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/value"
)

// gatePiece is one quarter of the gate list for the current cycle.
type gatePiece struct {
	idx    int
	g0, g1 int
	ckt    *Circuit // piece 0 only
	shared *Circuit // read Prev / write disjoint Next band
}

// programSrc is the coordination framework: iterate over clock cycles with
// a four-way fork/join per cycle.
const programSrc = `
main()
  iterate
  {
    cycle = 0, incr(cycle)
    ckt = ckt_setup(),
      let
        <a,b,c,d> = ckt_split(ckt)
        ao = ckt_bite(a, cycle)
        bo = ckt_bite(b, cycle)
        co = ckt_bite(c, cycle)
        do = ckt_bite(d, cycle)
      in ckt_latch(ao,bo,co,do)
  }
  while is_not_equal(cycle, CYCLES),
  result ckt
`

// Source returns the program text with the cycle count substituted.
func Source(cfg Config) string {
	return fmt.Sprintf("define CYCLES %d\n%s", cfg.Cycles, programSrc)
}

// Operators builds the circuit operator registry for cfg.
func Operators(cfg Config) (*operator.Registry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := operator.NewRegistry(operator.Builtins())

	r.MustRegister(&operator.Operator{
		Name: "ckt_setup", Arity: 0,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			c := New(cfg)
			ctx.Charge(int64(c.Words()))
			return circuitBlock(c, ctx), nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "ckt_split", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			c, err := circuitOf(args[0], "ckt_split")
			if err != nil {
				return nil, err
			}
			ctx.Charge(Parts)
			out := make(value.Tuple, Parts)
			for i := 0; i < Parts; i++ {
				g0, g1 := PartRange(cfg.Gates, i)
				gp := &gatePiece{idx: i, g0: g0, g1: g1, shared: c}
				if i == 0 {
					gp.ckt = c
				}
				out[i] = value.NewBlockStats(ctx.Pool().Opaque(gp, (g1-g0)*3), ctx.BlockStats())
			}
			return out, nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "ckt_bite", Arity: 2, Destructive: []bool{true, false},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			gp, err := pieceOf(args[0], "ckt_bite")
			if err != nil {
				return nil, err
			}
			if _, ok := args[1].(value.Int); !ok {
				return nil, fmt.Errorf("ckt_bite: cycle argument must be an integer")
			}
			gp.shared.EvalRange(gp.g0, gp.g1)
			ctx.Charge(int64(gp.g1-gp.g0) * 4)
			return args[0], nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "ckt_latch", Arity: Parts, Destructive: []bool{true, true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			var c *Circuit
			seen := 0
			for _, a := range args {
				gp, err := pieceOf(a, "ckt_latch")
				if err != nil {
					return nil, err
				}
				if gp.ckt != nil {
					c = gp.ckt
				}
				seen++
			}
			if c == nil {
				return nil, fmt.Errorf("ckt_latch: no piece carried the circuit")
			}
			if seen != Parts {
				return nil, fmt.Errorf("ckt_latch: %d pieces, want %d", seen, Parts)
			}
			c.Latch()
			ctx.Charge(int64(len(c.Prev)))
			return circuitBlock(c, ctx), nil
		},
	})

	return r, nil
}

func circuitOf(v value.Value, what string) (*Circuit, error) {
	p, err := opaqueOf(v, what)
	if err != nil {
		return nil, err
	}
	c, ok := p.(*Circuit)
	if !ok {
		return nil, fmt.Errorf("%s: expected circuit, got %T", what, p)
	}
	return c, nil
}

func pieceOf(v value.Value, what string) (*gatePiece, error) {
	p, err := opaqueOf(v, what)
	if err != nil {
		return nil, err
	}
	gp, ok := p.(*gatePiece)
	if !ok {
		return nil, fmt.Errorf("%s: expected gate piece, got %T", what, p)
	}
	return gp, nil
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

// ExtractCircuit unwraps a program result.
func ExtractCircuit(v value.Value) (*Circuit, error) { return circuitOf(v, "result") }

// CompileProgram compiles the coordination program for cfg.
func CompileProgram(cfg Config) (*graph.Program, error) {
	reg, err := Operators(cfg)
	if err != nil {
		return nil, err
	}
	res, err := compile.Compile("circuit.dlr", Source(cfg), compile.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

// Run compiles and simulates, returning the final circuit and the engine.
func Run(cfg Config, ecfg runtime.Config) (*Circuit, *runtime.Engine, error) {
	prog, err := CompileProgram(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := runtime.New(prog, ecfg)
	out, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	c, err := ExtractCircuit(out)
	if err != nil {
		return nil, nil, err
	}
	return c, eng, nil
}
