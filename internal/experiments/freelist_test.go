package experiments

import (
	"testing"

	"repro/internal/queens"
	"repro/internal/retina"
	"repro/internal/runtime"
)

// TestFreeListSimulatedActivationCounts pins how the programs behind the
// prio and mem experiments (the 7-queens row of mem is the prio run with
// priorities) split activation demand between fresh allocations and reuse on
// the simulated executor. The simulated machine runs one worker, whose free
// lists are one LIFO list per template, as the executor's single free list
// per template was before per-worker lists replaced it; these are that
// list's counts. A change to activation recycling that moves them changes
// the simulated traces.
func TestFreeListSimulatedActivationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sim := runtime.Config{Mode: runtime.Simulated, Workers: 4, MaxOps: 50_000_000}
	fifo := sim
	fifo.DisablePriorities = true
	for _, c := range []struct {
		name          string
		run           func() (*runtime.Engine, error)
		alloc, reused int64
	}{
		{"prio/7-queens/priorities", func() (*runtime.Engine, error) {
			_, e, err := queens.Run(7, sim)
			return e, err
		}, 509, 7723},
		{"prio/7-queens/fifo", func() (*runtime.Engine, error) {
			_, e, err := queens.Run(7, fifo)
			return e, err
		}, 1873, 6359},
		{"mem/retina-balanced", func() (*runtime.Engine, error) {
			_, e, err := retina.Run(listingConfig(), retina.V2, sim)
			return e, err
		}, 7, 5},
	} {
		e, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := e.Stats()
		t.Logf("%s: allocated %d reused %d", c.name, st.ActivationsAllocated, st.ActivationsReused)
		if st.ActivationsAllocated != c.alloc || st.ActivationsReused != c.reused {
			t.Errorf("%s: activations allocated %d reused %d, want %d and %d",
				c.name, st.ActivationsAllocated, st.ActivationsReused, c.alloc, c.reused)
		}
	}
}
