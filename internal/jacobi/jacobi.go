// Package jacobi solves the Laplace equation on a 2-D grid with Jacobi
// iteration — the array-layer workload shape that §2 says dominates
// scientific code. The coordination program iterates sweeps until the
// residual converges (a data-dependent loop exit), with each sweep forked
// four ways over row bands; the pieces carry their band residuals to the
// join, which folds them deterministically. The parallel result is
// bit-identical to a plain sequential solver, which makes the workload a
// sharp scheduler benchmark: any executor reordering that leaked into the
// data would break the equality check.
package jacobi

import (
	"fmt"
	"math"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/value"
)

// Config sizes one solve.
type Config struct {
	// N is the grid edge length.
	N int
	// Tol is the convergence tolerance on the max update per sweep.
	Tol float64
	// MaxSweeps bounds the iteration (safety against a tolerance that the
	// grid never reaches). Zero selects 10000.
	MaxSweeps int
	// MemPlan runs the memory-plan pass at compile time, activating copy
	// elision in the executors.
	MemPlan bool
	// Fuse runs the operator-fusion pass at compile time, collapsing
	// single-consumer chains into supernodes dispatched once.
	Fuse bool
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 96
	}
	if c.Tol == 0 {
		c.Tol = 1e-3
	}
	if c.MaxSweeps == 0 {
		c.MaxSweeps = 10000
	}
	return c
}

// Source returns the coordination program: a data-dependent iterate whose
// body is a four-way fork/join over row bands.
func Source(cfg Config) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf(`
define MAX_SWEEPS %d

main()
  iterate
  {
    sweeps = 0, incr(sweeps)
    st = jb_setup(),
      let
        <a,b,c,d> = jb_split(st)
        ao = jb_sweep(a)
        bo = jb_sweep(b)
        co = jb_sweep(c)
        do = jb_sweep(d)
      in jb_join(ao,bo,co,do)
  }
  while and(lt(sweeps, MAX_SWEEPS), jb_unconverged(st)),
  result st
`, cfg.MaxSweeps)
}

// State is the solver's linear-ownership payload.
type State struct {
	N        int
	Tol      float64
	U, V     []float64 // current and next grids, N x N
	Residual float64
	Sweeps   int
}

type piece struct {
	idx      int
	r0, r1   int
	st       *State // piece 0 only
	shared   *State // read U, write disjoint rows of V
	residual float64
}

// NewState builds the initial grid: a hot top edge with a sinusoidal
// profile, zero elsewhere.
func NewState(n int, tol float64) *State {
	s := &State{N: n, Tol: tol, Residual: math.Inf(1)}
	s.U = make([]float64, n*n)
	s.V = make([]float64, n*n)
	for c := 0; c < n; c++ {
		s.U[c] = 100 * math.Sin(math.Pi*float64(c)/float64(n-1))
		s.V[c] = s.U[c]
	}
	return s
}

// SweepRows relaxes interior rows [r0, r1), writing V from U, and returns
// the band's max update.
func (s *State) SweepRows(r0, r1 int) float64 {
	n := s.N
	if r0 < 1 {
		r0 = 1
	}
	if r1 > n-1 {
		r1 = n - 1
	}
	var res float64
	for r := r0; r < r1; r++ {
		for c := 1; c < n-1; c++ {
			i := r*n + c
			nv := 0.25 * (s.U[i-1] + s.U[i+1] + s.U[i-n] + s.U[i+n])
			if d := math.Abs(nv - s.U[i]); d > res {
				res = d
			}
			s.V[i] = nv
		}
	}
	return res
}

// Reference runs the plain sequential solver to convergence — the oracle
// the coordinated solve must match bit for bit.
func Reference(cfg Config) *State {
	cfg = cfg.withDefaults()
	s := NewState(cfg.N, cfg.Tol)
	for s.Sweeps < cfg.MaxSweeps {
		s.Residual = s.SweepRows(1, cfg.N-1)
		s.U, s.V = s.V, s.U
		copy(s.V, s.U)
		s.Sweeps++
		if s.Residual <= cfg.Tol {
			break
		}
	}
	return s
}

// Operators returns the solver's operator registry chained onto the
// builtins.
func Operators(cfg Config) *operator.Registry {
	cfg = cfg.withDefaults()
	n, tol := cfg.N, cfg.Tol
	reg := operator.NewRegistry(operator.Builtins())
	stBlock := func(s *State, ctx operator.Context) value.Value {
		return value.NewBlockStats(ctx.Pool().Opaque(s, 2*n*n), ctx.BlockStats())
	}
	pc := func(v value.Value, what string) (*piece, error) {
		blk, ok := v.(*value.Block)
		if !ok {
			return nil, fmt.Errorf("%s: piece block required, got %s", what, v.Kind())
		}
		o, ok := blk.Data().(*value.Opaque)
		if !ok {
			return nil, fmt.Errorf("%s: unexpected payload %T", what, blk.Data())
		}
		p, ok := o.Payload.(*piece)
		if !ok {
			return nil, fmt.Errorf("%s: bad payload %T", what, o.Payload)
		}
		return p, nil
	}

	reg.MustRegister(&operator.Operator{
		Name: "jb_setup", Arity: 0, Fresh: true,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			ctx.Charge(int64(n * n))
			return stBlock(NewState(n, tol), ctx), nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "jb_split", Arity: 1, Destructive: []bool{true}, Fresh: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			blk, ok := args[0].(*value.Block)
			if !ok {
				return nil, fmt.Errorf("jb_split: state block required, got %s", args[0].Kind())
			}
			s, ok := blk.Data().(*value.Opaque).Payload.(*State)
			if !ok {
				return nil, fmt.Errorf("jb_split: expected state, got %T", blk.Data().(*value.Opaque).Payload)
			}
			ctx.Charge(4)
			out := make(value.Tuple, 4)
			for i := 0; i < 4; i++ {
				p := &piece{idx: i, r0: i * n / 4, r1: (i + 1) * n / 4, shared: s}
				if i == 0 {
					p.st = s
				}
				out[i] = value.NewBlockStats(ctx.Pool().Opaque(p, n), ctx.BlockStats())
			}
			return out, nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "jb_sweep", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			p, err := pc(args[0], "jb_sweep")
			if err != nil {
				return nil, err
			}
			p.residual = p.shared.SweepRows(p.r0, p.r1)
			ctx.Charge(int64((p.r1 - p.r0) * n * 5))
			return args[0], nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "jb_join", Arity: 4, Destructive: []bool{true, true, true, true}, Fresh: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			var s *State
			var residuals [4]float64
			for _, a := range args {
				p, err := pc(a, "jb_join")
				if err != nil {
					return nil, err
				}
				if p.st != nil {
					s = p.st
				}
				residuals[p.idx] = p.residual
			}
			if s == nil {
				return nil, fmt.Errorf("jb_join: no piece carried the state")
			}
			s.Residual = 0
			for _, r := range residuals { // deterministic fold order
				if r > s.Residual {
					s.Residual = r
				}
			}
			s.U, s.V = s.V, s.U
			copy(s.V, s.U)
			s.Sweeps++
			ctx.Charge(int64(n))
			return stBlock(s, ctx), nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "jb_unconverged", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			blk, ok := args[0].(*value.Block)
			if !ok {
				return nil, fmt.Errorf("jb_unconverged: state block required, got %s", args[0].Kind())
			}
			s, ok := blk.Data().(*value.Opaque).Payload.(*State)
			if !ok {
				return nil, fmt.Errorf("jb_unconverged: expected state, got %T", blk.Data().(*value.Opaque).Payload)
			}
			ctx.Charge(1)
			return value.Bool(s.Residual > s.Tol), nil
		},
	})
	return reg
}

// CompileProgram compiles the solver's coordination program for cfg.
func CompileProgram(cfg Config) (*graph.Program, error) {
	cfg = cfg.withDefaults()
	res, err := compile.Compile("jacobi.dlr", Source(cfg), compile.Options{
		Registry: Operators(cfg), MemPlan: cfg.MemPlan, Fuse: cfg.Fuse})
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

// StateOf extracts the solver state from a program result.
func StateOf(v value.Value) (*State, error) {
	blk, ok := v.(*value.Block)
	if !ok {
		return nil, fmt.Errorf("jacobi: expected a state block result, got %s", v.Kind())
	}
	o, ok := blk.Data().(*value.Opaque)
	if !ok {
		return nil, fmt.Errorf("jacobi: unexpected payload %T", blk.Data())
	}
	s, ok := o.Payload.(*State)
	if !ok {
		return nil, fmt.Errorf("jacobi: expected state, got %T", o.Payload)
	}
	return s, nil
}

// Run compiles and executes the solve, returning the converged state and
// the engine for statistics.
func Run(cfg Config, ecfg runtime.Config) (*State, *runtime.Engine, error) {
	prog, err := CompileProgram(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := runtime.New(prog, ecfg)
	out, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	s, err := StateOf(out)
	if err != nil {
		return nil, nil, err
	}
	return s, eng, nil
}

// Matches reports whether two states agree bit for bit on the fields the
// solver guarantees deterministic.
func Matches(a, b *State) bool {
	if a.Sweeps != b.Sweeps || a.Residual != b.Residual || len(a.U) != len(b.U) {
		return false
	}
	for i := range a.U {
		if a.U[i] != b.U[i] {
			return false
		}
	}
	return true
}
