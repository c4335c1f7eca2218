package compile_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/compile"
	"repro/internal/stress"
)

// TestCompileAllocs is an allocation floor for the compiler. It compiles
// the first program of the benchmark's cold_compile corpus (stress seed
// 1990, 40 functions) and bounds its allocations. While the
// optimizer's walks rebuilt the whole tree on every call the compile took
// 94 259 allocations; with copy-on-change walks (DESIGN decision 23) it took
// 41 306, without the memory-plan pass 38 200, and without the fusion pass
// it takes 33 663. The bound leaves about 20 % above that.
func TestCompileAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("the race detector allocates on its own account")
			}
		}
	}
	src := stress.Generate(stress.GenConfig{Funcs: 40, Seed: 1990})
	opts := compile.Options{Registry: stress.Operators()}
	n := testing.AllocsPerRun(5, func() {
		if _, err := compile.Compile("stress.dlr", src, opts); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 40_000
	t.Logf("%.0f allocations per compile (bound %d)", n, bound)
	if n > bound {
		t.Errorf("compile takes %.0f allocations, bound %d", n, bound)
	}
}
