// Package stress generates seeded random coordination graphs at
// 10k–100k-node scale and differentially executes them across an
// executor/worker/reuse/fault config matrix, asserting the language's core
// guarantee mechanically: a Delirium program produces bit-identical results
// regardless of schedule, worker count, executor, engine reuse, or
// injected-and-retried faults. Runtime invariants (per-run Allocated ==
// Freed, pool counters coherent, no deadlock diagnostics on valid graphs) ride
// along on every run. When a seed fails, an automatic shrinker minimizes
// the generated program and writes the repro to testdata/regressions/,
// turning every caught failure into a permanent gating test.
package stress

import (
	"fmt"

	"repro/internal/operator"
	"repro/internal/value"
)

// FaultOps lists the stress operators targeted by the oracle's seeded
// fault-injection legs. All of them are Retryable, so a killed execution
// retries from snapshotted inputs and the run must still produce the
// fault-free result.
func FaultOps() []string {
	return []string{"st_cell", "st_stir", "st_blend", "st_fork", "st_probe"}
}

// vecOf extracts an IntVec block payload.
func vecOf(name string, v value.Value) (value.IntVec, error) {
	blk, ok := v.(*value.Block)
	if !ok {
		return nil, fmt.Errorf("%s: block argument required, got %s", name, v.Kind())
	}
	iv, ok := blk.Data().(value.IntVec)
	if !ok {
		return nil, fmt.Errorf("%s: IntVec payload required, got %T", name, blk.Data())
	}
	return iv, nil
}

// intOf extracts an integer argument.
func intOf(name string, v value.Value) (int64, error) {
	n, ok := v.(value.Int)
	if !ok {
		return 0, fmt.Errorf("%s: integer argument required, got %s", name, v.Kind())
	}
	return int64(n), nil
}

// mix is the non-commutative integer hash combine all stress digests fold
// through: any reordering, duplication, or loss of a contribution changes
// the result, which is exactly what makes the differential oracle sharp.
func mix(h, x int64) int64 { return h*1000003 + x*7919 + 12345 }

// Operators returns the stress registry chained onto the builtins:
// deterministic integer-vector block operators exercising allocation,
// destructive in-place mutation, block splitting (multi-value packages),
// read-only probing, and pure folding — every ownership shape the memory
// plan and the §8 contention protocol distinguish.
func Operators() *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())

	// st_cell(n): allocate a fresh block whose length and contents derive
	// deterministically from n.
	r.MustRegister(&operator.Operator{
		Name: "st_cell", Arity: 1, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			n, err := intOf("st_cell", args[0])
			if err != nil {
				return nil, err
			}
			ln := 4 + int((n%13+13)%13)
			cells := ctx.Pool().Ints(ln)
			for i := range cells {
				cells[i] = n*2654435761 + int64(i)*7919
			}
			ctx.Charge(int64(ln) + 1)
			return value.NewBlockStats(cells, ctx.BlockStats()), nil
		},
	})

	// st_stir(b, x): destructively perturb every cell of b with x.
	r.MustRegister(&operator.Operator{
		Name: "st_stir", Arity: 2, Destructive: []bool{true, false}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			cells, err := vecOf("st_stir", args[0])
			if err != nil {
				return nil, err
			}
			x, err := intOf("st_stir", args[1])
			if err != nil {
				return nil, err
			}
			for i := range cells {
				cells[i] = cells[i]*2862933555777941757 + x + int64(i)*97
			}
			ctx.Charge(int64(len(cells)) + 1)
			return args[0], nil
		},
	})

	// st_blend(a, b): destructively fold b's cells into a.
	r.MustRegister(&operator.Operator{
		Name: "st_blend", Arity: 2, Destructive: []bool{true, false}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			a, err := vecOf("st_blend", args[0])
			if err != nil {
				return nil, err
			}
			b, err := vecOf("st_blend", args[1])
			if err != nil {
				return nil, err
			}
			for i := range a {
				a[i] = a[i]*31 + b[i%len(b)] + int64(i)
			}
			ctx.Charge(int64(len(a)) + 1)
			return args[0], nil
		},
	})

	// st_fork(b): split b into a two-block package (the compiled "spread"
	// decomposition path). Halves are tagged so they diverge even when b
	// is tiny.
	r.MustRegister(&operator.Operator{
		Name: "st_fork", Arity: 1, Destructive: []bool{true}, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			cells, err := vecOf("st_fork", args[0])
			if err != nil {
				return nil, err
			}
			h := (len(cells) + 1) / 2
			left := ctx.Pool().Ints(h + 1)
			right := ctx.Pool().Ints(len(cells) - h + 1)
			copy(left, cells[:h])
			copy(right, cells[h:])
			left[h] = 1
			right[len(cells)-h] = 2
			ctx.Charge(int64(len(cells)) + 1)
			return value.Tuple{
				value.NewBlockStats(left, ctx.BlockStats()),
				value.NewBlockStats(right, ctx.BlockStats()),
			}, nil
		},
	})

	// st_probe(b): read-only digest of b's cells.
	r.MustRegister(&operator.Operator{
		Name: "st_probe", Arity: 1, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			cells, err := vecOf("st_probe", args[0])
			if err != nil {
				return nil, err
			}
			h := int64(1469598103934665603)
			for _, c := range cells {
				h = mix(h, c)
			}
			ctx.Charge(int64(len(cells)) + 1)
			return value.Int(h), nil
		},
	})

	// st_mix(x, y): pure non-commutative hash combine.
	r.MustRegister(&operator.Operator{
		Name: "st_mix", Arity: 2, Pure: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			x, err := intOf("st_mix", args[0])
			if err != nil {
				return nil, err
			}
			y, err := intOf("st_mix", args[1])
			if err != nil {
				return nil, err
			}
			ctx.Charge(1)
			return value.Int(mix(x, y)), nil
		},
	})

	return r
}
