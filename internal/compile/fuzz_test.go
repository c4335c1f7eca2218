package compile

import (
	"strings"
	"testing"

	"repro/internal/runtime"
	"repro/internal/value"
)

// FuzzCompile feeds arbitrary text through the whole pipeline. The
// compiler must never panic: malformed input produces diagnostics, and
// well-formed input produces a validated program — the same one every
// time, so an accepted input is compiled twice and the graphs must match
// byte for byte (map iteration in a pass must not leak into its output).
// Run the seeds as regular tests with `go test`, or fuzz with
// `go test -fuzz=FuzzCompile`.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"",
		"main() 1",
		"main() add(1, 2)",
		"main() let a = 1 in a",
		"main() let <a,b> = <1,2> in add(a,b)",
		"main() if is_equal(1,1) then 2 else 3",
		"main() iterate { i = 0, incr(i) } while lt(i, 3), result i",
		"define N 4\nmain() N",
		"f(x) f(x)\nmain() 0",
		"main() let g(v) incr(v) in g(1)",
		"main() <",
		"main() let in",
		"main() iterate {} while x, result y",
		"42 42 42",
		"main() \"unterminated",
		"define define define",
		"main() tuple_get(<1>, 9)",
		"a() b()\nb() a()\nmain() 1",
		"main() (((((((1)))))))",
		"main() merge(NULL, NULL, <NULL>)",
		"\xff\xfe invalid utf8 \x80",
		"main(" + strings.Repeat("x,", 50) + "y) y",
		"main() " + strings.Repeat("incr(", 100) + "1" + strings.Repeat(")", 100),
	}
	// Generator-derived corpus entries give the fuzzer structurally valid
	// programs to mutate from — much deeper pipeline coverage than
	// hand-written snippets alone.
	seeds = append(seeds,
		Generate(4, 1),
		Generate(8, 3),
		Generate(16, 99),
		Generate(32, -5),
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Compile("fuzz.dlr", src, Options{})
		if err != nil {
			return // diagnostics are the expected outcome for bad input
		}
		again, err := Compile("fuzz.dlr", src, Options{})
		if err != nil {
			t.Fatalf("second compile failed: %v", err)
		}
		if again.Program.Dot() != res.Program.Dot() {
			t.Fatal("two compiles of one input give different graphs")
		}
		// Valid programs must also execute (or fail cleanly) without
		// panicking; cap the work so pathological loops terminate.
		if res.Program.Main == nil || res.Program.Main.NParams != 0 {
			return
		}
		eng := runtime.New(res.Program, runtime.Config{
			Mode: runtime.Real, Workers: 2, MaxOps: 50_000})
		v, err := eng.Run()
		if err == nil && v == nil {
			t.Fatal("nil result without error")
		}
	})
}

// FuzzGenerate asserts Generate's contract directly: at arbitrary
// (nFuncs, seed) — negative, zero, huge — the output always compiles
// cleanly. Compile-only, so the fuzzer can sweep function counts far
// beyond what the compile-and-run target affords.
func FuzzGenerate(f *testing.F) {
	f.Add(0, int64(0))
	f.Add(-3, int64(-1))
	f.Add(100, int64(7))
	f.Add(1<<20, int64(42))
	f.Fuzz(func(t *testing.T, nFuncs int, seed int64) {
		// Bound only the work, not the input domain: fold huge requests
		// into a still-large range so fuzz iterations stay fast.
		n := nFuncs
		if n > 512 || n < -512 {
			n = int(int64(n)%512 + 512)
		}
		src := Generate(n, seed)
		if _, err := Compile("gen.dlr", src, Options{}); err != nil {
			t.Fatalf("Generate(%d, %d) does not compile: %v", n, seed, err)
		}
	})
}

// FuzzGeneratedPrograms verifies the synthetic workload generator always
// emits valid, runnable programs over its whole seed space slice.
func FuzzGeneratedPrograms(f *testing.F) {
	f.Add(int64(0), uint8(8))
	f.Add(int64(42), uint8(30))
	f.Add(int64(-7), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		src := Generate(int(n%64)+4, seed)
		res, err := Compile("gen.dlr", src, Options{})
		if err != nil {
			t.Fatalf("generated program failed to compile: %v\n%s", err, src)
		}
		eng := runtime.New(res.Program, runtime.Config{
			Mode: runtime.Real, Workers: 2, MaxOps: 5_000_000})
		v, err := eng.Run()
		if err != nil {
			t.Fatalf("generated program failed to run: %v", err)
		}
		if _, ok := v.(value.Int); !ok {
			if _, ok := v.(value.Float); !ok {
				t.Fatalf("generated main returned %T", v)
			}
		}
	})
}
