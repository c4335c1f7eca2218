package compile_test

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/runtime"
	"repro/internal/selfcomp"
)

// TestParallelDiagnosticsDeterministic checks that the parallel compiler
// reports the same diagnostics, in the same order, as the sequential one —
// per-item diagnostic buffers are merged in definition order — including
// the crown's redefinition errors and the warnings environment analysis
// adds after the per-function walks.
func TestParallelDiagnosticsDeterministic(t *testing.T) {
	// A program with an error in many functions.
	var b strings.Builder
	for i := 0; i < 12; i++ {
		b.WriteString("f")
		b.WriteByte(byte('a' + i))
		b.WriteString("(x) undefined_op(x)\n")
	}
	b.WriteString("main() 1\n")
	srcs := []string{
		b.String(),
		"f() 1\ng() 2\nf() 3\nmain() add(f(), g())\n",
		"f(a, b) undefined_op(a)\nmain() f(1, 2)\n",
	}
	for _, src := range srcs {
		_, seqErr := compile.Compile("t.dlr", src, compile.Options{})
		if seqErr == nil {
			t.Fatalf("expected errors in\n%s", src)
		}
		for _, n := range realWorkers {
			for trial := 0; trial < 3; trial++ {
				_, parErr := selfcomp.Compile("t.dlr", src, nil, runtime.Real, n)
				if parErr == nil {
					t.Fatal("parallel compile missed the errors")
				}
				if parErr.Error() != seqErr.Error() {
					t.Fatalf("%d workers, trial %d: diagnostics differ\n--- sequential\n%v\n--- parallel\n%v",
						n, trial, seqErr, parErr)
				}
			}
		}
	}
	// All twelve errors reported, not just the first.
	_, err := compile.Compile("t.dlr", srcs[0], compile.Options{})
	if got := strings.Count(err.Error(), "undefined name"); got != 12 {
		t.Errorf("reported %d undefined-name errors, want 12", got)
	}
}

// TestParallelParseErrorsDeterministic does the same for syntax errors.
// Recovery messages may differ textually between the drivers — the chunk
// parser hits its chunk's end where the sequential parser sees the next
// definition — but the parallel compiler must be deterministic across runs
// and worker counts and must flag the same source lines as the sequential
// one.
func TestParallelParseErrorsDeterministic(t *testing.T) {
	src := `
alpha() let x = in 1
beta() if 1 then 2
gamma() (unclosed
main() 1
`
	_, seqErr := compile.Compile("t.dlr", src, compile.Options{})
	if seqErr == nil {
		t.Fatal("expected errors")
	}
	var first string
	for _, n := range realWorkers {
		for trial := 0; trial < 3; trial++ {
			_, parErr := selfcomp.Compile("t.dlr", src, nil, runtime.Real, n)
			if parErr == nil {
				t.Fatal("parallel compile missed the errors")
			}
			if first == "" {
				first = parErr.Error()
			} else if parErr.Error() != first {
				t.Fatalf("%d workers, trial %d: parallel diagnostics unstable", n, trial)
			}
		}
	}
	for _, line := range []string{"t.dlr:2:", "t.dlr:3:", "t.dlr:4:"} {
		if !strings.Contains(seqErr.Error(), line) {
			t.Errorf("sequential diagnostics missing %s", line)
		}
		if !strings.Contains(first, line) {
			t.Errorf("parallel diagnostics missing %s", line)
		}
	}
}
