package compile

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/runtime"
	"repro/internal/source"
	"repro/internal/value"
)

const smallSrc = `
define N 4

square(v) mul(v, v)

main()
  let a = square(N)
      b = square(incr(N))
  in add(a, b)
`

func TestCompileSequential(t *testing.T) {
	res, err := Compile("t.dlr", smallSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program == nil || res.Program.Main == nil {
		t.Fatal("no program")
	}
	if len(res.Passes) != len(PassNames) {
		t.Fatalf("passes = %d, want %d", len(res.Passes), len(PassNames))
	}
	for i, p := range res.Passes {
		if p.Name != PassNames[i] {
			t.Errorf("pass[%d] = %q, want %q", i, p.Name, PassNames[i])
		}
		if p.Nanos < 0 {
			t.Errorf("pass %q has negative duration", p.Name)
		}
	}
	if res.TotalNanos() <= 0 {
		t.Error("TotalNanos should be positive")
	}
}

func TestCompileAndRun(t *testing.T) {
	res, err := Compile("t.dlr", smallSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := runtime.New(res.Program, runtime.Config{Mode: runtime.Real, Workers: 2})
	v, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != value.Int(41) { // 16 + 25
		t.Errorf("result = %v, want 41", v)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"main() @", "unexpected character"},
		{"main() let in x", "no bindings"},
		{"main() nope(1)", "undefined name"},
	}
	for _, c := range cases {
		if _, err := Compile("t.dlr", c.src, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q) err = %v, want mention of %q", c.src, err, c.want)
		}
	}
}

func TestOptimizationLevelsPreserveSemantics(t *testing.T) {
	src := Generate(16, 3)
	var results []value.Value
	for _, lvl := range []int{-1, 1, 2} {
		res, err := Compile("g.dlr", src, Options{OptLevel: lvl})
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		e := runtime.New(res.Program, runtime.Config{Mode: runtime.Real, Workers: 2, MaxOps: 5_000_000})
		v, err := e.Run()
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		results = append(results, v)
	}
	for i := 1; i < len(results); i++ {
		if !value.Equal(results[0], results[i]) {
			t.Errorf("optimization changed semantics: %v vs %v", results[0], results[i])
		}
	}
}

func TestOptimizationShrinksGraphs(t *testing.T) {
	src := Generate(32, 5)
	unopt, err := Compile("g.dlr", src, Options{OptLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	opt2, err := Compile("g.dlr", src, Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if opt2.Program.NodeCount() >= unopt.Program.NodeCount() {
		t.Errorf("optimized graph not smaller: %d vs %d nodes",
			opt2.Program.NodeCount(), unopt.Program.NodeCount())
	}
	if opt2.OptStats.Folded == 0 || opt2.OptStats.Inlined == 0 {
		t.Errorf("optimizer idle on synthetic workload: %v", opt2.OptStats)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(20, 42)
	b := Generate(20, 42)
	if a != b {
		t.Error("Generate must be deterministic for a fixed seed")
	}
	c := Generate(20, 43)
	if a == c {
		t.Error("different seeds should vary the program")
	}
}

func TestGenerateScales(t *testing.T) {
	small := Generate(10, 1)
	big := Generate(200, 1)
	if len(big) < 5*len(small) {
		t.Errorf("Generate(200) should be much larger than Generate(10): %d vs %d", len(big), len(small))
	}
}

func TestDotExportOfCompiledProgram(t *testing.T) {
	res, err := Compile("t.dlr", smallSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dot := res.Program.Dot(); !strings.Contains(dot, "main") {
		t.Error("dot export missing main")
	}
	if _, ok := res.Program.Template("main"); !ok {
		t.Error("Template lookup failed")
	}
	var tmpl *graph.Template
	tmpl, _ = res.Program.Template("main")
	if tmpl.CountNodes() == 0 {
		t.Error("main has no nodes")
	}
}

func TestGeneratedProgramsPrintParseFixpoint(t *testing.T) {
	// Property: for generated workloads, print -> parse -> print is a
	// fixed point (the printer emits re-parseable canonical source).
	for seed := int64(0); seed < 5; seed++ {
		src := Generate(20, seed)
		var diags source.DiagList
		prog1 := parser.Parse("g.dlr", src, &diags)
		if diags.HasErrors() {
			t.Fatalf("seed %d: %v", seed, diags.Err())
		}
		p1 := ast.PrintProgram(prog1)
		prog2 := parser.Parse("g2.dlr", p1, &diags)
		if diags.HasErrors() {
			t.Fatalf("seed %d: printed source does not re-parse: %v", seed, diags.Err())
		}
		if p2 := ast.PrintProgram(prog2); p1 != p2 {
			t.Errorf("seed %d: print/parse not a fixed point", seed)
		}
	}
}

func TestUnusedParameterWarning(t *testing.T) {
	res, err := Compile("t.dlr", "f(a, b) incr(a)\nmain() f(1, 2)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "parameter b of f is never used") {
		t.Errorf("Warnings = %v", res.Warnings)
	}
	// Clean programs warn nothing; captures and forwarded names count as
	// uses.
	clean, err := Compile("t.dlr", `
main(k)
  let addk(v) add(v, k)
  in addk(k)
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", clean.Warnings)
	}
}
