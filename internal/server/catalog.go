package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/jacobi"
	"repro/internal/operator"
	"repro/internal/prelude"
	"repro/internal/queens"
	"repro/internal/runtime"
	"repro/internal/value"
)

// This file is the built-in program catalog: the named workloads
// cmd/delserver can register at startup. Each builder compiles once and
// attaches a typed renderer, so catalog responses are structured JSON rather than
// generic value dumps.

// CatalogNames lists the built-in workload names Catalog accepts.
// "queensN" is a family (queens4 … queens8); "jacobi" defaults to a small
// grid and "jacobiN" selects an N×N one.
func CatalogNames() []string {
	return []string{"jacobi", "jacobi<N>", "queens<N>"}
}

// Catalog builds the Spec for one built-in workload name. workers sizes
// each engine's worker pool; chaosSeed, when non-zero, arms seeded fault
// injection with retry on workloads whose operators are safe to re-run
// (the queens family — jacobi's operators share state pointers across the
// graph and are deliberately not retryable).
func Catalog(name string, workers int, chaosSeed int64) (Spec, error) {
	if workers <= 0 {
		workers = 2
	}
	switch {
	case name == "jacobi" || strings.HasPrefix(name, "jacobi"):
		n := 16
		if rest := strings.TrimPrefix(name, "jacobi"); rest != "" {
			v, err := strconv.Atoi(rest)
			if err != nil || v < 8 || v > 512 {
				return Spec{}, fmt.Errorf("catalog: bad jacobi size %q (want jacobi or jacobi8..jacobi512)", name)
			}
			n = v
		}
		return jacobiSpec(name, n, workers)
	case strings.HasPrefix(name, "queens"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "queens"))
		if err != nil || n < 1 || n > 10 {
			return Spec{}, fmt.Errorf("catalog: bad queens size %q (want queens1..queens10)", name)
		}
		return queensSpec(name, n, workers, chaosSeed)
	default:
		return Spec{}, fmt.Errorf("catalog: unknown workload %q", name)
	}
}

func jacobiSpec(name string, n, workers int) (Spec, error) {
	cfg := jacobi.Config{N: n, Tol: 1e-2, MaxSweeps: 2000}
	prog, err := jacobi.CompileProgram(cfg)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Name: name,
		Prog: prog,
		Base: runtime.Config{Mode: runtime.Real, Workers: workers,
			MaxOps: 100_000_000, OpTimeout: 5 * time.Second},
		Render: func(v value.Value) (any, error) {
			st, err := jacobi.StateOf(v)
			if err != nil {
				return nil, err
			}
			var sum float64
			for _, x := range st.U {
				sum += x
			}
			return map[string]any{
				"n":        st.N,
				"sweeps":   st.Sweeps,
				"residual": st.Residual,
				// checksum fingerprints the full grid so bit-identity across
				// concurrent runs is checkable from the JSON alone. Hex text:
				// a 64-bit integer would lose bits through JSON float decoding.
				"checksum": fmt.Sprintf("%016x", math.Float64bits(sum)),
			}, nil
		},
	}, nil
}

func queensSpec(name string, n, workers int, chaosSeed int64) (Spec, error) {
	prog, err := queens.CompileProgram(n)
	if err != nil {
		return Spec{}, err
	}
	base := runtime.Config{Mode: runtime.Real, Workers: workers,
		MaxOps: 100_000_000, OpTimeout: 5 * time.Second}
	var faults func() *runtime.FaultPlan
	if chaosSeed != 0 {
		// The queens operators are pure over immutable boards and marked
		// Retryable, so seeded faults + retry exercise the recovery path
		// while results stay bit-identical to fault-free runs. Each engine
		// gets a private plan: plans keep execution cursors.
		base.Retry = runtime.RetryPolicy{MaxAttempts: 3}
		faults = func() *runtime.FaultPlan {
			return runtime.SeededFaultPlan(chaosSeed, []string{"add_queen", "is_valid"}, 40)
		}
	}
	return Spec{
		Name:   name,
		Prog:   prog,
		Base:   base,
		Faults: faults,
		Render: func(v value.Value) (any, error) {
			sols, err := queens.Solutions(v)
			if err != nil {
				return nil, err
			}
			return map[string]any{"n": n, "count": len(sols), "solutions": sols}, nil
		},
	}, nil
}

// CompileSource compiles Delirium source posted to POST /programs into a
// Spec: builtin operators (plus the prelude when asked), generic
// decode/render. This is the "register a new program into the live service"
// path.
func CompileSource(name, src string, workers int, withPrelude bool) (Spec, error) {
	if workers <= 0 {
		workers = 2
	}
	if withPrelude {
		src = prelude.Source() + "\n" + src
	}
	res, err := compile.Compile(name+".dlr", src, compile.Options{Registry: operator.Builtins()})
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Name: name,
		Prog: res.Program,
		Base: runtime.Config{Mode: runtime.Real, Workers: workers,
			MaxOps: 100_000_000, OpTimeout: 5 * time.Second},
	}, nil
}
