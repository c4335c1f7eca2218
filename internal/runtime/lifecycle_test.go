package runtime

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// Engine lifecycle regressions: validation failures must not consume the
// engine, and a consumed engine must keep reporting ErrAlreadyRun.

func TestRunValidationDoesNotConsumeEngine(t *testing.T) {
	g := compile(t, "main(a, b) add(a, b)", nil)
	e := New(g, Config{Mode: Real, Workers: 2})

	// Wrong argument count: rejected, but the engine stays fresh.
	if _, err := e.Run(value.Int(1)); err == nil || !strings.Contains(err.Error(), "expects 2 arguments") {
		t.Fatalf("bad-arity error = %v", err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "expects 2 arguments") {
		t.Fatalf("second bad-arity call = %v, want arity error (not ErrAlreadyRun)", err)
	}

	// Corrected retry succeeds on the same engine.
	v, err := e.Run(value.Int(40), value.Int(2))
	if err != nil {
		t.Fatalf("corrected retry failed: %v", err)
	}
	if v != value.Int(42) {
		t.Errorf("got %v, want 42", v)
	}

	// Only now is the engine consumed.
	if _, err := e.Run(value.Int(40), value.Int(2)); !errors.Is(err, ErrAlreadyRun) {
		t.Errorf("after a successful run, err = %v, want ErrAlreadyRun", err)
	}
}

func TestRunNoMainDoesNotConsumeEngine(t *testing.T) {
	prog := &graph.Program{Templates: map[string]*graph.Template{}}
	e := New(prog, Config{Mode: Real, Workers: 1})
	for i := 0; i < 2; i++ {
		if _, err := e.Run(); !errors.Is(err, ErrNoMain) {
			t.Fatalf("call %d: err = %v, want ErrNoMain every time", i, err)
		}
	}
}

// TestSeedQuiescenceReportsDeadlock pins the early-return path of runWorkers:
// when seeding schedules nothing and no result was produced, the run must
// report the same deadlock diagnostic the worker loop emits, not the
// generic "no result" fallback.
func TestSeedQuiescenceReportsDeadlock(t *testing.T) {
	tmpl := &graph.Template{Name: "silent"}
	tmpl.Nodes = []*graph.Node{
		{ID: 0, Kind: graph.ConstNode, Const: value.Int(1)},
		{ID: 1, Kind: graph.OpNode, Name: "x", NIn: 1}, // result node, never fed
	}
	tmpl.Result = 1
	prog := &graph.Program{Templates: map[string]*graph.Template{"main": tmpl}, Main: tmpl}
	e := New(prog, Config{Mode: Real, Workers: 4})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlocked") {
		t.Errorf("err = %v, want the deadlock diagnostic", err)
	}
}
