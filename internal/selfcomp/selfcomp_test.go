package selfcomp

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/value"
)

func TestSelfHostedCompilerProducesWorkingPrograms(t *testing.T) {
	src := compile.Generate(60, 5)
	res, err := Compile("w.dlr", src, nil, runtime.Simulated, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil || res.Graph.Main == nil {
		t.Fatal("no compiled program")
	}
	// The self-hosted compiler's output matches the direct driver's.
	direct, err := compile.Compile("w.dlr", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Graph.Templates) != len(direct.Program.Templates) {
		t.Fatalf("template counts differ: selfhosted %d vs direct %d",
			len(res.Graph.Templates), len(direct.Program.Templates))
	}
	var names []string
	for name := range direct.Program.Templates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a, ok := res.Graph.Templates[name]
		if !ok {
			t.Fatalf("template %s missing from self-hosted output", name)
		}
		b := direct.Program.Templates[name]
		if len(a.Nodes) != len(b.Nodes) || a.Result != b.Result {
			t.Errorf("template %s differs: %d/%d nodes", name, len(a.Nodes), len(b.Nodes))
		}
	}
}

func TestSelfHostedCompilerErrorsSurface(t *testing.T) {
	if _, err := Compile("bad.dlr", "main() undefined_op(1)", nil, runtime.Simulated, 3); err == nil ||
		!strings.Contains(err.Error(), "undefined name") {
		t.Errorf("err = %v, want undefined-name diagnostic", err)
	}
	if _, err := Compile("bad.dlr", "main() let in", nil, runtime.Simulated, 3); err == nil {
		t.Error("syntax error should surface")
	}
}

func TestTable1ShapeSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src := compile.Generate(240, 1990)
	seq, err := Compile("w.dlr", src, nil, runtime.Simulated, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compile("w.dlr", src, nil, runtime.Simulated, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Lexing unchanged (one sequential operator either way).
	lexRatio := float64(seq.PassTicks["Lexing"]) / float64(par.PassTicks["Lexing"])
	if lexRatio < 0.98 || lexRatio > 1.02 {
		t.Errorf("lexing should be unchanged, ratio %.3f", lexRatio)
	}
	// Every other pass speeds up by 2-3x (paper's range).
	for _, pass := range []string{"Parsing", "Macro Expansion", "Env Analysis", "Optimization", "Graph Conversion"} {
		sp := float64(seq.PassTicks[pass]) / float64(par.PassTicks[pass])
		if sp < 1.8 || sp > 3.05 {
			t.Errorf("%s speedup = %.2f, want in [1.8, 3.05]", pass, sp)
		}
	}
	// Total lands near the paper's 2.2x.
	total := float64(seq.TotalTicks) / float64(par.TotalTicks)
	if total < 1.9 || total > 2.8 {
		t.Errorf("total speedup = %.2f, want ~2.2", total)
	}
	t.Logf("total speedup %.2f", total)
}

func TestTable1Deterministic(t *testing.T) {
	src := compile.Generate(40, 3)
	a, err := Compile("w.dlr", src, nil, runtime.Simulated, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile("w.dlr", src, nil, runtime.Simulated, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTicks != b.TotalTicks {
		t.Errorf("virtual times differ: %d vs %d", a.TotalTicks, b.TotalTicks)
	}
	for pass, ticks := range a.PassTicks {
		if b.PassTicks[pass] != ticks {
			t.Errorf("pass %s differs: %d vs %d", pass, ticks, b.PassTicks[pass])
		}
	}
}

func TestTable1Text(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	text, err := Table1Text(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Lexing", "Graph Conversion", "Totals", "Speedup"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table1Text missing %q:\n%s", want, text)
		}
	}
}

func TestBalanceEvenness(t *testing.T) {
	weights := make([]int, 300)
	for i := range weights {
		weights[i] = 1 + i%17
	}
	groups := balance(weights, nil)
	var loads [Ways]int
	seen := make(map[int]bool)
	for g, items := range groups {
		for _, i := range items {
			if seen[i] {
				t.Fatalf("item %d assigned twice", i)
			}
			seen[i] = true
			loads[g] += weights[i]
		}
	}
	if len(seen) != len(weights) {
		t.Fatalf("assigned %d items, want %d", len(seen), len(weights))
	}
	minL, maxL := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if float64(maxL) > 1.2*float64(minL) {
		t.Errorf("unbalanced groups: %v", loads)
	}
}

func TestOpPassMapping(t *testing.T) {
	cases := map[string]string{
		"lex":          "Lexing",
		"parse_split":  "Parsing",
		"parse_bite":   "Parsing",
		"macro_join":   "Macro Expansion",
		"env_bite":     "Env Analysis",
		"opt_bite":     "Optimization",
		"inline_join":  "Optimization",
		"graph_bite":   "Graph Conversion",
		"incr":         "",
		"is_not_equal": "",
	}
	for op, want := range cases {
		if got := opPass(op); got != want {
			t.Errorf("opPass(%q) = %q, want %q", op, got, want)
		}
	}
}

// TestOptSplitsKeepNestsTogether: the opt and inline splits put every
// lifted function (named owner$inner...) in the same piece as the
// top-level function it was lifted out of. The optimizer's walks over an
// owner descend into its nest's bodies, so a nest split across workers
// races.
func TestOptSplitsKeepNestsTogether(t *testing.T) {
	reg := Operators("n.dlr", compile.Generate(60, 5), operator.Builtins())
	call := func(name string, args ...value.Value) value.Value {
		v, err := opCall(t, reg, name, args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	st := call("lex")
	for _, pass := range []string{"parse", "macro", "env", "opt", "inline"} {
		pieces := call(pass+"_split", st).(value.Tuple)
		if pass == "opt" || pass == "inline" {
			s, err := stateOf(st, pass)
			if err != nil {
				t.Fatal(err)
			}
			at := make(map[string]int)
			for p, v := range pieces {
				pc, err := pieceOf(v, pass)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range pc.items {
					at[s.names[i]] = p
				}
			}
			lifted := 0
			for name, p := range at {
				if owner, _, ok := strings.Cut(name, "$"); ok {
					lifted++
					if at[owner] != p {
						t.Errorf("%s split: %s in piece %d, its owner %s in piece %d", pass, name, p, owner, at[owner])
					}
				}
			}
			if lifted == 0 {
				t.Fatal("workload has no nested functions")
			}
		}
		for i := range pieces {
			pieces[i] = call(pass+"_bite", pieces[i])
		}
		st = call(pass+"_join", pieces...)
	}
}
