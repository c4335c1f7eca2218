package stress

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/graph"
)

// smokeSeeds is the per-test seed batch; STRESS_SEEDS overrides it (the
// nightly CI job raises it).
func smokeSeeds(t *testing.T, def int) int {
	t.Helper()
	if s := os.Getenv("STRESS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad STRESS_SEEDS=%q: %v", s, err)
		}
		return n
	}
	return def
}

// TestGenerateDeterministic asserts the generator is a pure function of
// its config.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Funcs: 64, Seed: 7})
	b := Generate(GenConfig{Funcs: 64, Seed: 7})
	if a != b {
		t.Fatal("same config produced different programs")
	}
	c := Generate(GenConfig{Funcs: 64, Seed: 8})
	if a == c {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestGenerateCompiles asserts a spread of seeds compiles cleanly.
func TestGenerateCompiles(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		src := Generate(GenConfig{Funcs: 48, Seed: seed})
		if _, err := compile.Compile("gen.dlr", src, compile.Options{Registry: Operators()}); err != nil {
			t.Fatalf("seed %d failed to compile: %v\n%s", seed, err, clip(src, 2000))
		}
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "\n…"
}

// nodeCount compiles the program and counts coordination-graph nodes
// across all templates.
func nodeCount(t *testing.T, src string) int {
	t.Helper()
	res, err := compile.Compile("gen.dlr", src, compile.Options{Registry: Operators()})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return countNodes(res.Program)
}

func countNodes(p *graph.Program) int {
	n := 0
	for _, tpl := range p.Templates {
		n += len(tpl.Nodes)
	}
	return n
}

// TestGraphScale asserts the generator reaches the ROADMAP's 10k-node
// floor at moderate function counts (100k is the nightly's territory).
func TestGraphScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src := Generate(GenConfig{Funcs: 600, Seed: 3})
	n := nodeCount(t, src)
	if n < 10_000 {
		t.Fatalf("600-function program has %d graph nodes, want >= 10000", n)
	}
	t.Logf("600 funcs -> %d nodes, %d source lines", n, strings.Count(src, "\n"))
}

// TestShrinkSyntheticPredicate drives the shrinker with a structural
// predicate standing in for a real oracle failure ("the program uses
// st_fork"): the minimized program must preserve the predicate, stay
// compilable, and collapse to a handful of lines.
func TestShrinkSyntheticPredicate(t *testing.T) {
	p := NewProgram(GenConfig{Funcs: 40, Seed: 11})
	orig := p.Source()
	if !strings.Contains(orig, "st_fork") {
		t.Skip("seed 11 generated no st_fork; adjust seed")
	}
	check := func(q *Program) (string, bool) {
		src := q.Source()
		if !strings.Contains(src, "st_fork") {
			return "", false
		}
		if _, err := compile.Compile("shrunk.dlr", src, compile.Options{Registry: Operators()}); err != nil {
			return "", false
		}
		return "program still contains st_fork", true
	}
	shrunk, msg := Shrink(p, check)
	if msg == "" {
		t.Fatal("shrinker lost the failure")
	}
	src := shrunk.Source()
	if !strings.Contains(src, "st_fork") {
		t.Fatal("shrunk program no longer satisfies the predicate")
	}
	origLines, gotLines := strings.Count(orig, "\n"), strings.Count(src, "\n")
	if gotLines > 20 {
		t.Errorf("shrunk program has %d lines, want <= 20:\n%s", gotLines, src)
	}
	if gotLines >= origLines {
		t.Errorf("no shrinkage: %d -> %d lines", origLines, gotLines)
	}
	t.Logf("shrunk %d -> %d lines", origLines, gotLines)
}

// TestShrinkKeepsOracleFailure wires the shrinker to a real (simulated)
// oracle defect: a predicate that reruns the program and reports failure
// whenever the fingerprints of two run specs disagree — here
// faked by checking a miscompiled-style property, structure retained in
// TestShrinkSyntheticPredicate. This test instead checks WriteRepro
// round-trips through the replay loader's expectations.
func TestWriteRepro(t *testing.T) {
	p := NewProgram(GenConfig{Funcs: 12, Seed: 5})
	dir := t.TempDir()
	path, err := WriteRepro(dir, p, "[sim/w8] mismatch: synthetic")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	if !strings.Contains(src, "-- failure: [sim/w8] mismatch: synthetic") {
		t.Fatal("repro header missing failure record")
	}
	rep := CheckSource(path, src, Specs()[:3])
	if !rep.OK() {
		t.Fatalf("written repro does not pass the oracle it was saved from: %s", rep.Failures[0])
	}
}

// TestOracleMatrix drives seeded programs through the full differential
// matrix: every run spec must produce the
// reference result bit-exactly with all invariants intact.
func TestOracleMatrix(t *testing.T) {
	seeds := smokeSeeds(t, 6)
	funcs := 32
	if testing.Short() {
		seeds, funcs = 2, 16
	}
	var faults int64
	for seed := 0; seed < seeds; seed++ {
		p := NewProgram(GenConfig{Funcs: funcs, Seed: int64(seed)})
		rep := CheckProgram(p)
		if !rep.OK() {
			t.Errorf("seed %d: %d failures, first: %s", seed, len(rep.Failures), rep.Failures[0])
		}
		if rep.Runs == 0 {
			t.Errorf("seed %d: no runs recorded", seed)
		}
		faults += rep.FaultsInjected
	}
	// Per sweep, not per seed: a single valid program may execute no
	// fault-target operators, but a whole batch injecting nothing means
	// the fault legs are mis-wired.
	if faults == 0 {
		t.Error("fault legs injected no faults across the whole sweep")
	}
}
