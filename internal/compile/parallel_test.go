package compile_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/selfcomp"
	"repro/internal/stress"
	"repro/internal/value"
)

// The parallel compiler of case study #2 is internal/selfcomp: the passes
// run as Delirium operators under a fork/join coordination program. These
// tests hold it, on Real workers, to this package's sequential driver.

// realWorkers are the Real worker counts every parallel-compiler test
// sweeps.
var realWorkers = []int{1, 2, 3}

func TestParallelMatchesSequential(t *testing.T) {
	type program struct {
		name, src string
		reg       *operator.Registry
	}
	progs := []program{{"table1", compile.Generate(240, 1990), nil}}
	for seed := int64(1); seed <= 6; seed++ {
		progs = append(progs, program{fmt.Sprintf("gen-%d", seed), compile.Generate(18, seed), nil})
	}
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, program{fmt.Sprintf("stress-%d", seed),
			stress.Generate(stress.GenConfig{Funcs: 48, Seed: seed}), stress.Operators()})
	}
	for _, p := range progs {
		seq, err := compile.Compile("g.dlr", p.src, compile.Options{Registry: p.reg})
		if err != nil {
			t.Fatalf("%s: sequential: %v", p.name, err)
		}
		want := seq.Program.Dot()
		for _, n := range realWorkers {
			par, err := selfcomp.Compile("g.dlr", p.src, p.reg, runtime.Real, n)
			if err != nil {
				t.Fatalf("%s: %d workers: %v", p.name, n, err)
			}
			if par.Graph.Dot() != want {
				t.Errorf("%s: %d workers: graph differs from the sequential driver's", p.name, n)
			}
		}
	}
}

func TestParallelAndSequentialProduceSameResult(t *testing.T) {
	src := compile.Generate(24, 11)
	run := func(g *graph.Program) value.Value {
		e := runtime.New(g, runtime.Config{Mode: runtime.Real, Workers: 2, MaxOps: 5_000_000})
		v, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	seq, err := compile.Compile("g.dlr", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := run(seq.Program)
	for _, n := range realWorkers {
		par, err := selfcomp.Compile("g.dlr", src, nil, runtime.Real, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(par.Graph); !value.Equal(got, want) {
			t.Errorf("%d workers: compiled programs disagree: %v vs %v", n, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	src := compile.Generate(12, 2)
	seq, err := selfcomp.Compile("g.dlr", src, nil, runtime.Real, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := selfcomp.Compile("g.dlr", src, nil, runtime.Real, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab := selfcomp.Table(seq, par, 3)
	for _, name := range compile.PassNames {
		if !strings.Contains(tab, name) {
			t.Errorf("table missing pass %q:\n%s", name, tab)
		}
	}
	if !strings.Contains(tab, "Totals") || !strings.Contains(tab, "Parallel (n=3)") {
		t.Errorf("table missing totals row or parallel column:\n%s", tab)
	}
}

func TestParallelUnusedParameterWarning(t *testing.T) {
	src := "f(a, b) incr(a)\nmain() f(1, 2)"
	seq, err := compile.Compile("t.dlr", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range realWorkers {
		par, err := selfcomp.Compile("t.dlr", src, nil, runtime.Real, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.Warnings, seq.Warnings) {
			t.Errorf("%d workers: Warnings = %v, want %v", n, par.Warnings, seq.Warnings)
		}
	}
}
