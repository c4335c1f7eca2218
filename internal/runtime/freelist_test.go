package runtime

import (
	"testing"
	"time"

	"repro/internal/operator"
	"repro/internal/value"
)

// TestFreeListStealingFanOutAllocatesNone runs a binary fan-out on eight
// workers whose leaves sleep, so idle workers steal throughout and
// activations keep finishing on workers other than the ones that acquired
// them. Once warm, the free lists and their depot must serve every
// acquisition: 200 runs allocate no activation.
func TestFreeListStealingFanOutAllocatesNone(t *testing.T) {
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{
		Name: "nap", Arity: 1,
		Fn: func(_ operator.Context, args []value.Value) (value.Value, error) {
			time.Sleep(20 * time.Microsecond)
			return value.Int(1), nil
		},
	})
	g := compile(t, `
main(n) tree(n)

tree(n)
  if lt(n, 1)
    then nap(n)
    else add(tree(sub(n, 1)), tree(sub(n, 1)))
`, reg)
	e := New(g, Config{Mode: Real, Workers: 8})
	const depth, warm, runs = 7, 20, 200
	var steals int64
	for i := 0; i < warm+runs; i++ {
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		v, err := e.Run(value.Int(depth))
		if err != nil {
			t.Fatal(err)
		}
		if v != value.Int(1<<depth) {
			t.Fatalf("run %d: result %v, want %d", i, v, 1<<depth)
		}
		st := e.Stats()
		if i < warm {
			continue
		}
		steals += st.Steals
		if st.ActivationsAllocated != 0 {
			t.Errorf("warm run %d allocated %d activations (reused %d)", i-warm, st.ActivationsAllocated, st.ActivationsReused)
		}
	}
	if steals == 0 {
		t.Error("no steals in 200 runs: the test no longer moves activations between workers")
	}
	t.Logf("%d steals over %d warm runs", steals, runs)
}
