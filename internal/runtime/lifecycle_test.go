package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/operator"
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

// TestNewRefusesUnnumberedProgram: the activation free lists are indexed by
// template ID, so New must refuse a program nobody numbered, by name,
// rather than fail later with an index out of range.
func TestNewRefusesUnnumberedProgram(t *testing.T) {
	tmpl := &graph.Template{Name: "main", Nodes: []*graph.Node{{ID: 0, Kind: graph.ConstNode, Const: value.Int(1)}}}
	prog := &graph.Program{Templates: map[string]*graph.Template{"main": tmpl}, Main: tmpl}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not numbered") {
			t.Errorf("New on an unnumbered program: recovered %v, want the not-numbered panic", r)
		}
	}()
	New(prog, Config{Mode: Real, Workers: 2})
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
	graph.Number(prog)
	e := New(prog, Config{Mode: Real, Workers: 4})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlocked") {
		t.Errorf("err = %v, want the deadlock diagnostic", err)
	}
}

// TestGoroutinesReturnToBaseline is the run lifecycle's goroutine accounting:
// however a run ends, every goroutine it started — its workers, the
// cancellation callback, a goroutine abandoned to the watchdog once its
// operator returns — is gone after it, on bounded and unbounded engines alike.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	// hook is what the hook operator does in the current scenario. A
	// goroutine abandoned to the watchdog is never joined, so the operator
	// reads it atomically.
	var hook atomic.Pointer[func()]
	setHook := func(f func()) { hook.Store(&f) }
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{
		Name: "hook", Arity: 1,
		Fn: func(_ operator.Context, args []value.Value) (value.Value, error) {
			(*hook.Load())()
			return args[0], nil
		},
	})
	// The second tree waits on the hook's result, so its 570 dispatches all
	// come after the hook returns: more than 8 workers × 63, so some worker
	// crosses a 64-dispatch cancellation poll after the context is done.
	// That makes FailCanceled certain once the hook returns from a dead
	// context, whichever wins the race with the cancellation callback.
	g := compile(t, `
tree(d) if is_equal(d, 0) then 1 else add(tree(sub(d, 1)), tree(sub(d, 1)))
main(d) add(tree(d), tree(hook(d)))
`, reg)
	const want = value.Int(64 + 64)
	arg := []value.Value{value.Int(6)}
	wantKind := func(err error, kind FailKind) error {
		var re *RunError
		if !errors.As(err, &re) || re.Kind != kind {
			return fmt.Errorf("err = %v, want a %v RunError", err, kind)
		}
		return nil
	}
	wantValue := func(v value.Value, err error) error {
		if err != nil || v != want {
			return fmt.Errorf("got %v, %v; want %v", v, err, want)
		}
		return nil
	}
	scenarios := []struct {
		name string
		run  func(e *Engine, bounded bool) error
	}{
		{"run", func(e *Engine, _ bool) error {
			return wantValue(e.Run(arg...))
		}},
		{"live ctx", func(e *Engine, _ bool) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return wantValue(e.RunContext(ctx, arg...))
		}},
		{"canceled", func(e *Engine, _ bool) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			setHook(cancel)
			_, err := e.RunContext(ctx, arg...)
			return wantKind(err, FailCanceled)
		}},
		{"timed out", func(e *Engine, bounded bool) error {
			if bounded {
				// The operator overruns the engine's 20ms bound: the watchdog
				// abandons its goroutine, which exits once the gate opens.
				gate := make(chan struct{})
				defer close(gate)
				setHook(func() { <-gate })
				_, err := e.Run(arg...)
				return wantKind(err, FailTimeout)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			setHook(func() { <-ctx.Done() })
			_, err := e.RunContext(ctx, arg...)
			return wantKind(err, FailCanceled)
		}},
		{"runmany", func(e *Engine, _ bool) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := e.RunMany(ctx, [][]value.Value{arg, arg, arg})
			if err != nil {
				return err
			}
			for i, r := range res {
				if err := wantValue(r.Value, r.Err); err != nil {
					return fmt.Errorf("invocation %d: %w", i, err)
				}
			}
			return nil
		}},
	}
	setHook(func() {})
	// The process's deadline watchdog starts with the first bounded run and
	// outlives every run by design: start it before taking the baseline.
	if err := wantValue(New(g, Config{Mode: Real, OpTimeout: time.Minute}).Run(arg...)); err != nil {
		t.Fatal(err)
	}
	base := goruntime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		for _, bounded := range []bool{false, true} {
			for _, sc := range scenarios {
				name := fmt.Sprintf("w%d/bounded=%v/%s", workers, bounded, sc.name)
				cfg := Config{Mode: Real, Workers: workers}
				if bounded {
					cfg.OpTimeout = time.Minute
					if sc.name == "timed out" {
						cfg.OpTimeout = 20 * time.Millisecond
					}
				}
				setHook(func() {})
				if err := sc.run(New(g, cfg), bounded); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				settledGoroutines(t, base)
			}
		}
	}
}
