package runtime

import (
	"testing"

	"repro/internal/value"
)

// Language corner cases executed end to end on both executors.

func TestNestedIterates(t *testing.T) {
	// Multiplication table sum via two nested loops.
	src := `
inner(r, m)
  iterate
  {
    c = 0, incr(c)
    acc = 0, add(acc, mul(r, incr(c)))
  } while lt(c, m),
  result acc

main(n, m)
  iterate
  {
    r = 0, incr(r)
    total = 0, add(total, inner(incr(r), m))
  } while lt(r, n),
  result total
`
	// sum_{r=1..n} sum_{c=1..m} r*c = n(n+1)/2 * m(m+1)/2
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			v := runProg(t, src, cfg, value.Int(5), value.Int(4))
			if v != value.Int(15*10) {
				t.Errorf("got %v, want 150", v)
			}
		})
	}
}

func runProg(t *testing.T, src string, cfg Config, args ...value.Value) value.Value {
	t.Helper()
	g := compile(t, src, nil)
	e := New(g, cfg)
	v, err := e.Run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestIterateInsideConditional(t *testing.T) {
	src := `
main(flag, n)
  if flag
    then iterate { i = 0, incr(i) } while lt(i, n), result i
    else neg(n)
`
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			if v := runProg(t, src, cfg, value.Bool(true), value.Int(7)); v != value.Int(7) {
				t.Errorf("then-arm loop = %v", v)
			}
			if v := runProg(t, src, cfg, value.Bool(false), value.Int(7)); v != value.Int(-7) {
				t.Errorf("else arm = %v", v)
			}
		})
	}
}

func TestClosureAsProgramResult(t *testing.T) {
	src := `
make_adder(k)
  let addk(v) add(v, k)
  in addk
main(k) make_adder(k)
`
	g := compile(t, src, nil)
	e := New(g, Config{Mode: Real, Workers: 2})
	v, err := e.Run(value.Int(9))
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := v.(*value.Closure)
	if !ok {
		t.Fatalf("result = %T, want closure", v)
	}
	if cl.Fn.ParamCount() != 1 || len(cl.Env) != 1 {
		t.Errorf("closure shape: params=%d env=%d", cl.Fn.ParamCount(), len(cl.Env))
	}
	if cl.Env[0] != value.Int(9) {
		t.Errorf("captured value = %v", cl.Env[0])
	}
}

func TestHigherOrderTower(t *testing.T) {
	// A function returning a function returning a function.
	src := `
make2(a)
  let make1(b)
        let f(c) add(a, add(b, c))
        in f
  in make1
main(a, b, c) ((make2(a))(b))(c)
`
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			if v := runProg(t, src, cfg, value.Int(100), value.Int(20), value.Int(3)); v != value.Int(123) {
				t.Errorf("got %v, want 123", v)
			}
		})
	}
}

func TestClosureCapturingClosure(t *testing.T) {
	src := `
main(x)
  let base(v) mul(v, 2)
      wrap(v) incr(base(v))
  in wrap(x)
`
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			if v := runProg(t, src, cfg, value.Int(10)); v != value.Int(21) {
				t.Errorf("got %v, want 21", v)
			}
		})
	}
}

func TestLoopVariableUnusedInResult(t *testing.T) {
	src := `
main(n)
  iterate
  {
    i = 0, incr(i)
    junk = 0, mul(junk, 2)
  } while lt(i, n),
  result i
`
	if v := runProg(t, src, Config{Mode: Real, Workers: 2}, value.Int(5)); v != value.Int(5) {
		t.Errorf("got %v", v)
	}
}

func TestFunctionPassedThroughLoop(t *testing.T) {
	// A closure carried as a loop variable and applied each pass.
	src := `
main(n)
  let double(v) mul(v, 2)
  in iterate
     {
       i = 0, incr(i)
       f = double, f
       acc = 1, f(acc)
     } while lt(i, n),
     result acc
`
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			if v := runProg(t, src, cfg, value.Int(6)); v != value.Int(64) {
				t.Errorf("2^6 = %v, want 64", v)
			}
		})
	}
}

func TestTupleOfClosures(t *testing.T) {
	src := `
main(x)
  let inc(v) add(v, 1)
      dbl(v) mul(v, 2)
      <f, g> = <inc, dbl>
  in add(f(x), g(x))
`
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			if v := runProg(t, src, cfg, value.Int(10)); v != value.Int(31) {
				t.Errorf("got %v, want 31", v)
			}
		})
	}
}

func TestStringsThroughProgram(t *testing.T) {
	src := `
greet(name) strcat("hello, ", name)
main(name) greet(name)
`
	if v := runProg(t, src, Config{Mode: Real, Workers: 1}, value.Str("world")); v != value.Str("hello, world") {
		t.Errorf("got %v", v)
	}
}

func TestEmptyTupleEverywhere(t *testing.T) {
	src := `
main()
  let e = <>
      n = tuple_len(e)
  in <n, tuple_concat(e, <1>, e)>
`
	v := runProg(t, src, Config{Mode: Real, Workers: 2})
	tup := v.(value.Tuple)
	if tup[0] != value.Int(0) {
		t.Errorf("tuple_len(<>) = %v", tup[0])
	}
	inner := tup[1].(value.Tuple)
	if len(inner) != 1 || inner[0] != value.Int(1) {
		t.Errorf("concat = %v", inner)
	}
}

// TestRealDeterminismAcrossSchedulers is the §8 block-protocol guarantee
// exercised against the work-stealing executor: the same program must
// produce identical results at 1, 2, and 8 workers, and on the simulated
// machine under the FIFO ablation (DisablePriorities) — scheduling may
// reorder execution, never change the answer.
func TestRealDeterminismAcrossSchedulers(t *testing.T) {
	src := `
tree(d)
  if is_equal(d, 0)
    then 1
    else let a = tree(sub(d, 1))
             b = tree(sub(d, 1))
         in add(mul(a, 3), b)
main(n)
  let deep = tree(7)
      loop = iterate { i = 0, incr(i)
                       acc = 0, add(acc, mul(i, i)) } while lt(i, n),
             result acc
  in <deep, loop, strcat("n=", n)>
`
	g := compile(t, src, nil)
	var want value.Value
	for _, cfg := range []Config{
		{Mode: Real, Workers: 1},
		{Mode: Real, Workers: 2},
		{Mode: Real, Workers: 8},
		{Mode: Simulated, Workers: 4, DisablePriorities: true},
	} {
		cfg.MaxOps = 10_000_000
		e := New(g, cfg)
		v, err := e.Run(value.Int(50))
		if err != nil {
			t.Fatalf("%v workers=%d disable=%v: %v", cfg.Mode, cfg.Workers, cfg.DisablePriorities, err)
		}
		if want == nil {
			want = v
		} else if !value.Equal(v, want) {
			t.Errorf("%v workers=%d disable=%v: %v != %v", cfg.Mode, cfg.Workers, cfg.DisablePriorities, v, want)
		}
	}
}

func TestRecursionThroughClosureOnly(t *testing.T) {
	// The classic: recursion reached through a first-class value.
	src := `
fact(n) if is_equal(n, 0) then 1 else mul(n, fact(sub(n, 1)))
apply(f, x) f(x)
main(n) apply(fact, n)
`
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			if v := runProg(t, src, cfg, value.Int(6)); v != value.Int(720) {
				t.Errorf("got %v", v)
			}
		})
	}
}
