package delirium_test

import (
	"os"
	"path/filepath"
	"testing"

	delirium "repro"
	"repro/internal/queens"
	"repro/internal/value"
)

// TestProgramsDirectory compiles and runs every shipped .dlr program with
// known arguments and checks the results, on both executors.
func TestProgramsDirectory(t *testing.T) {
	cases := []struct {
		file     string
		registry *delirium.Registry
		args     []delirium.Value
		check    func(t *testing.T, v delirium.Value)
	}{
		{
			file:     "queens8.dlr",
			registry: queens.Operators(),
			check: func(t *testing.T, v delirium.Value) {
				sols, err := queens.Solutions(v)
				if err != nil {
					t.Fatal(err)
				}
				if len(sols) != 92 {
					t.Errorf("queens8 = %d solutions, want 92", len(sols))
				}
			},
		},
		{
			file: "fib.dlr",
			args: []delirium.Value{delirium.Int(20)},
			check: func(t *testing.T, v delirium.Value) {
				if v != delirium.Int(6765) {
					t.Errorf("fib(20) = %v, want 6765", v)
				}
			},
		},
		{
			file: "sumloop.dlr",
			args: []delirium.Value{delirium.Int(1000)},
			check: func(t *testing.T, v delirium.Value) {
				if v != delirium.Int(500500) {
					t.Errorf("sum 1..1000 = %v, want 500500", v)
				}
			},
		},
		{
			file: "closures.dlr",
			args: []delirium.Value{delirium.Int(10)},
			check: func(t *testing.T, v delirium.Value) {
				if v != delirium.Int(110) { // lt(10,50) -> adder(10) = 10+100
					t.Errorf("closures(10) = %v, want 110", v)
				}
			},
		},
		{
			file: "closures.dlr",
			args: []delirium.Value{delirium.Int(60)},
			check: func(t *testing.T, v delirium.Value) {
				if v != delirium.Int(120) { // not lt(60,50) -> double(60)
					t.Errorf("closures(60) = %v, want 120", v)
				}
			},
		},
		{
			file: "collatz.dlr",
			args: []delirium.Value{delirium.Int(27)},
			check: func(t *testing.T, v delirium.Value) {
				if v != delirium.Int(111) {
					t.Errorf("collatz(27) = %v, want 111 steps", v)
				}
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("programs", c.file))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := delirium.Compile(c.file, string(src), delirium.CompileOptions{Registry: c.registry})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, mode := range []struct {
				name string
				cfg  delirium.RunConfig
			}{
				{"real", delirium.RunConfig{Mode: delirium.Real, Workers: 4, MaxOps: 100_000_000}},
				{"sim", delirium.RunConfig{Mode: delirium.Simulated, Workers: 4, MaxOps: 100_000_000}},
			} {
				t.Run(mode.name, func(t *testing.T) {
					v, err := prog.Run(mode.cfg, c.args...)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					c.check(t, v)
				})
			}
		})
	}
}

// TestProgramsAgreeAcrossExecutors double-checks value equality between
// the two executors for the numeric programs.
func TestProgramsAgreeAcrossExecutors(t *testing.T) {
	for _, file := range []string{"fib.dlr", "sumloop.dlr", "collatz.dlr"} {
		src, err := os.ReadFile(filepath.Join("programs", file))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := delirium.Compile(file, string(src), delirium.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		arg := delirium.Int(15)
		a, err := prog.Run(delirium.RunConfig{Mode: delirium.Real, Workers: 3, MaxOps: 100_000_000}, arg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prog.Run(delirium.RunConfig{Mode: delirium.Simulated, Workers: 3, MaxOps: 100_000_000}, arg)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(a, b) {
			t.Errorf("%s: executors disagree: %v vs %v", file, a, b)
		}
	}
}

// TestRealActivationBound bounds the activations a cold Real run allocates
// on a fresh engine, which bounds its peak of live activations from above.
// A Real worker pops its one deque LIFO, so a node's consumers run before
// older work and few activations are live at once; a FIFO ready queue at one
// worker allocates hundreds for 7-queens and thousands for fib 20.
func TestRealActivationBound(t *testing.T) {
	qsrc := queens.Program(7)
	fsrc, err := os.ReadFile(filepath.Join("programs", "fib.dlr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		registry  *delirium.Registry
		args      []delirium.Value
		workers   int
		bound     int64
	}{
		{"queens7", qsrc, queens.Operators(), nil, 1, 32},
		{"queens7", qsrc, queens.Operators(), nil, 2, 32},
		{"fib", string(fsrc), nil, []delirium.Value{delirium.Int(20)}, 1, 64},
	} {
		prog, err := delirium.Compile(c.name, c.src, delirium.CompileOptions{Registry: c.registry})
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		_, st, _, err := prog.RunStats(delirium.RunConfig{Mode: delirium.Real, Workers: c.workers, MaxOps: 100_000_000}, c.args...)
		if err != nil {
			t.Fatalf("%s at %d workers: %v", c.name, c.workers, err)
		}
		t.Logf("%s at %d workers: %d activations allocated, %d reused", c.name, c.workers, st.ActivationsAllocated, st.ActivationsReused)
		if st.ActivationsAllocated > c.bound {
			t.Errorf("%s at %d workers: %d activations allocated, want at most %d",
				c.name, c.workers, st.ActivationsAllocated, c.bound)
		}
	}
}
