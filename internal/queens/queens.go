// Package queens implements the parallel recursive backtracking example of
// §3: find every placement of N queens so that none attacks another. The
// coordination program is the paper's, generalized from 8 to N: do_it tries
// every location of the next queen in parallel and merges the sub-results;
// try validates a placement and either returns a solution, recurses, or
// gives up with NULL.
//
// The program exposes a tremendous degree of parallelism — so much that it
// would lead to an unwieldy explosion of schedulable operators without the
// runtime's priority execution scheme (§7); the priority ablation
// experiment measures exactly that effect on this workload.
package queens

import (
	"fmt"
	"strings"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/value"
)

// board is an immutable placement: positions[i] is the column (1-based) of
// the queen on row i. Boards are small and copied on extension, mirroring
// the paper's "roughly 100 lines of C" operator implementation.
type board struct {
	positions []int
}

func (b *board) words() int { return len(b.positions) + 1 }

// boardBlock wraps b in a block whose Opaque shell comes from the worker's
// pool.
func boardBlock(b *board, ctx operator.Context) *value.Block {
	return value.NewBlockStats(ctx.Pool().Opaque(b, b.words()), ctx.BlockStats())
}

func boardOf(v value.Value, what string) (*board, error) {
	if v == nil {
		return nil, fmt.Errorf("%s: missing board", what)
	}
	blk, ok := v.(*value.Block)
	if !ok {
		return nil, fmt.Errorf("%s: board block required, got %s", what, v.Kind())
	}
	o, ok := blk.Data().(*value.Opaque)
	if !ok {
		return nil, fmt.Errorf("%s: unexpected payload %T", what, blk.Data())
	}
	b, ok := o.Payload.(*board)
	if !ok {
		return nil, fmt.Errorf("%s: expected board, got %T", what, o.Payload)
	}
	return b, nil
}

// Operators returns the queens operator registry chained onto the builtins.
func Operators() *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())

	// The queens operators are pure-functional over immutable boards (no
	// Destructive arguments), so a failed attempt can simply re-run:
	// Retryable makes the workload safe under fault injection and the
	// server's chaos mode. They are deliberately NOT marked Pure — Pure
	// would let the compiler constant-fold zero-argument empty_board.
	r.MustRegister(&operator.Operator{
		Name: "empty_board", Arity: 0, Retryable: true,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			ctx.Charge(1)
			return boardBlock(&board{}, ctx), nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "add_queen", Arity: 3, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			b, err := boardOf(args[0], "add_queen")
			if err != nil {
				return nil, err
			}
			queen, ok := args[1].(value.Int)
			if !ok {
				return nil, fmt.Errorf("add_queen: queen number must be an integer")
			}
			loc, ok := args[2].(value.Int)
			if !ok {
				return nil, fmt.Errorf("add_queen: location must be an integer")
			}
			if int(queen) != len(b.positions)+1 {
				return nil, fmt.Errorf("add_queen: queen %d placed on board with %d queens", queen, len(b.positions))
			}
			np := make([]int, len(b.positions)+1)
			copy(np, b.positions)
			np[len(b.positions)] = int(loc)
			ctx.Charge(int64(len(np)))
			return boardBlock(&board{positions: np}, ctx), nil
		},
	})

	r.MustRegister(&operator.Operator{
		Name: "is_valid", Arity: 1, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			b, err := boardOf(args[0], "is_valid")
			if err != nil {
				return nil, err
			}
			n := len(b.positions)
			if n == 0 {
				return value.Bool(true), nil
			}
			last := b.positions[n-1]
			row := n - 1
			for r := 0; r < row; r++ {
				c := b.positions[r]
				if c == last || abs(c-last) == row-r {
					ctx.Charge(int64(r + 1))
					return value.Bool(false), nil
				}
			}
			ctx.Charge(int64(n))
			return value.Bool(true), nil
		},
	})

	// show_solutions passes the merged solution package through; the host
	// program extracts and renders it (in the paper it printed).
	r.MustRegister(&operator.Operator{
		Name: "show_solutions", Arity: 1, Retryable: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			ctx.Charge(1)
			return args[0], nil
		},
	})

	return r
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Program returns the §3 coordination program generalized to n queens: n
// parallel try bindings per do_it expansion.
func Program(n int) string {
	var b strings.Builder
	b.WriteString("main()\n  let board = empty_board()\n  in show_solutions(do_it(board,1))\n\n")
	b.WriteString("do_it(board,queen)\n  let ")
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString("      ")
		}
		fmt.Fprintf(&b, "h%d = try(board,queen,%d)\n", i, i)
	}
	b.WriteString("  in merge(")
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "h%d", i)
	}
	b.WriteString(")\n\n")
	fmt.Fprintf(&b, `try(board,queen,location)
  let new_board = add_queen(board,queen,location)
  in if is_valid(new_board)
      then if is_equal(queen,%d)
            then new_board
            else do_it(new_board,incr(queen))
      else NULL
`, n)
	return b.String()
}

// CompileProgram compiles the n-queens program.
func CompileProgram(n int) (*graph.Program, error) {
	return CompileProgramFused(n, false)
}

// CompileProgramFused compiles the n-queens program, optionally running the
// operator-fusion pass.
func CompileProgramFused(n int, fuse bool) (*graph.Program, error) {
	if n < 1 {
		return nil, fmt.Errorf("queens: n must be positive, got %d", n)
	}
	res, err := compile.Compile(fmt.Sprintf("queens%d.dlr", n), Program(n), compile.Options{
		Registry: Operators(), Fuse: fuse})
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

// Solutions extracts the boards from a program result.
func Solutions(v value.Value) ([][]int, error) {
	tup, ok := v.(value.Tuple)
	if !ok {
		return nil, fmt.Errorf("queens: expected a solution package, got %s", v.Kind())
	}
	out := make([][]int, 0, len(tup))
	for i, el := range tup {
		b, err := boardOf(el, fmt.Sprintf("solution %d", i))
		if err != nil {
			return nil, err
		}
		out = append(out, append([]int(nil), b.positions...))
	}
	return out, nil
}

// Run compiles and executes n-queens, returning the solutions and the
// engine for statistics.
func Run(n int, ecfg runtime.Config) ([][]int, *runtime.Engine, error) {
	return RunFused(n, false, ecfg)
}

// RunFused is Run with the operator-fusion pass toggled by fuse.
func RunFused(n int, fuse bool, ecfg runtime.Config) ([][]int, *runtime.Engine, error) {
	prog, err := CompileProgramFused(n, fuse)
	if err != nil {
		return nil, nil, err
	}
	eng := runtime.New(prog, ecfg)
	out, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	sols, err := Solutions(out)
	if err != nil {
		return nil, nil, err
	}
	return sols, eng, nil
}

// Valid reports whether a full placement is a correct n-queens solution.
func Valid(sol []int, n int) bool {
	if len(sol) != n {
		return false
	}
	for i := 0; i < n; i++ {
		if sol[i] < 1 || sol[i] > n {
			return false
		}
		for j := i + 1; j < n; j++ {
			if sol[i] == sol[j] || abs(sol[i]-sol[j]) == j-i {
				return false
			}
		}
	}
	return true
}

// CountReference computes the solution count with a plain sequential
// backtracker — the oracle for the Delirium runs.
func CountReference(n int) int {
	pos := make([]int, 0, n)
	var rec func() int
	rec = func() int {
		if len(pos) == n {
			return 1
		}
		total := 0
		row := len(pos)
		for c := 1; c <= n; c++ {
			ok := true
			for r, pc := range pos {
				if pc == c || abs(pc-c) == row-r {
					ok = false
					break
				}
			}
			if ok {
				pos = append(pos, c)
				total += rec()
				pos = pos[:row]
			}
		}
		return total
	}
	return rec()
}
