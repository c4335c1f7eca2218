package delirium_test

import (
	"strings"
	"testing"

	delirium "repro"
)

func TestCompileAndRunQuickstart(t *testing.T) {
	// The §2.1 fork/join example with convolve standing in for real work.
	reg := delirium.NewRegistry(delirium.Builtins())
	reg.MustRegister(&delirium.Operator{
		Name: "init_fn", Arity: 0,
		Fn: func(ctx delirium.Context, _ []delirium.Value) (delirium.Value, error) {
			ctx.Charge(1)
			return delirium.Int(10), nil
		},
	})
	reg.MustRegister(&delirium.Operator{
		Name: "convolve", Arity: 2,
		Fn: func(ctx delirium.Context, args []delirium.Value) (delirium.Value, error) {
			ctx.Charge(5)
			return args[0].(delirium.Int) + args[1].(delirium.Int), nil
		},
	})
	reg.MustRegister(&delirium.Operator{
		Name: "term_fn", Arity: 4,
		Fn: func(ctx delirium.Context, args []delirium.Value) (delirium.Value, error) {
			ctx.Charge(1)
			var sum delirium.Int
			for _, a := range args {
				sum += a.(delirium.Int)
			}
			return sum, nil
		},
	})
	src := `
main()
  let
    a_start=init_fn()
    a=convolve(a_start,0)
    b=convolve(a_start,1)
    c=convolve(a_start,2)
    d=convolve(a_start,3)
  in term_fn(a,b,c,d)
`
	prog, err := delirium.Compile("quickstart.dlr", src, delirium.CompileOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(delirium.RunConfig{Mode: delirium.Real, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out != delirium.Int(46) { // (10+0)+(10+1)+(10+2)+(10+3)
		t.Errorf("result = %v, want 46", out)
	}
}

func TestPublicAPIArgsAndStats(t *testing.T) {
	prog, err := delirium.Compile("t.dlr", "main(x) mul(x, add(x, 1))", delirium.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, stats, timing, err := prog.RunStats(delirium.RunConfig{
		Mode: delirium.Simulated, Workers: 2, Timing: true, Machine: delirium.CrayYMP(),
	}, delirium.Int(6))
	if err != nil {
		t.Fatal(err)
	}
	if v != delirium.Int(42) {
		t.Errorf("6*7 = %v", v)
	}
	if stats.OperatorsRun != 2 {
		t.Errorf("OperatorsRun = %d, want 2", stats.OperatorsRun)
	}
	if timing == nil || len(timing.Entries()) != 2 {
		t.Errorf("timing entries = %v", timing)
	}
	if stats.MakespanTicks <= 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestPublicAPICompileError(t *testing.T) {
	if _, err := delirium.Compile("t.dlr", "main() undefined_op(1)", delirium.CompileOptions{}); err == nil {
		t.Error("expected compile error")
	}
}

func TestPublicAPIDotAndPasses(t *testing.T) {
	prog, err := delirium.Compile("t.dlr", "main() incr(1)", delirium.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Dot(), "digraph") {
		t.Error("Dot output missing header")
	}
	if len(prog.Passes()) != 6 {
		t.Errorf("passes = %d, want 6", len(prog.Passes()))
	}
	if prog.NodeCount() == 0 {
		t.Error("no nodes")
	}
	if prog.Graph() == nil || prog.Graph().Main == nil {
		t.Error("graph access broken")
	}
}

func TestMachineProfiles(t *testing.T) {
	for _, p := range []*delirium.MachineProfile{
		delirium.CrayYMP(), delirium.Cray2(), delirium.Sequent(),
		delirium.Butterfly(), delirium.Uniprocessor(),
	} {
		if p.Procs < 1 || p.Name == "" {
			t.Errorf("bad profile %+v", p)
		}
		if p.String() == "" {
			t.Error("empty profile description")
		}
	}
	if delirium.Butterfly().Uniform() {
		t.Error("Butterfly should be NUMA")
	}
	if !delirium.CrayYMP().Uniform() {
		t.Error("Cray should be UMA")
	}
	if delirium.CrayYMP().WithProcs(2).Procs != 2 {
		t.Error("WithProcs broken")
	}
}

func TestEval(t *testing.T) {
	v, err := delirium.Eval("add(mul(6, 7), tuple_len(<1, 2>))")
	if err != nil {
		t.Fatal(err)
	}
	if v != delirium.Int(44) {
		t.Errorf("Eval = %v, want 44", v)
	}
	// The prelude is in scope.
	v, err = delirium.Eval("tuple_len(iota(9))")
	if err != nil {
		t.Fatal(err)
	}
	if v != delirium.Int(9) {
		t.Errorf("Eval iota = %v", v)
	}
	if _, err := delirium.Eval("undefined_thing(1)"); err == nil {
		t.Error("bad expression accepted")
	}
	if _, err := delirium.Eval("let oops"); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestPreludeExport(t *testing.T) {
	if !strings.Contains(delirium.Prelude(), "parmap") {
		t.Error("Prelude() missing parmap")
	}
}

// TestRunStatsOnFailure: a failed run must still surface its counters and
// timing log — they are most useful when diagnosing exactly that run.
func TestRunStatsOnFailure(t *testing.T) {
	prog, err := delirium.Compile("t.dlr", "main(a, b) add(incr(a), div(a, b))", delirium.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, stats, timing, err := prog.RunStats(delirium.RunConfig{
		Mode: delirium.Real, Workers: 2, Timing: true,
	}, delirium.Int(1), delirium.Int(0))
	if err == nil {
		t.Fatal("division by zero must fail")
	}
	if v != nil {
		t.Errorf("failed run value = %v, want nil", v)
	}
	if stats == nil || stats.OpsExecuted == 0 {
		t.Errorf("failed run stats = %+v, want the partial counters", stats)
	}
	if timing == nil {
		t.Error("failed run timing = nil, want the partial log")
	}
}

// TestRunTracedOnFailure: the partial trace recorded up to the failure is
// returned alongside the RunError.
func TestRunTracedOnFailure(t *testing.T) {
	prog, err := delirium.Compile("t.dlr", "main(a, b) add(incr(a), div(a, b))", delirium.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, trace, err := prog.RunTraced(delirium.RunConfig{Mode: delirium.Real, Workers: 2},
		delirium.Int(1), delirium.Int(0))
	if err == nil {
		t.Fatal("division by zero must fail")
	}
	if v != nil {
		t.Errorf("failed run value = %v, want nil", v)
	}
	if trace == nil || len(trace.Events) == 0 {
		t.Error("failed run trace empty, want the events recorded before the failure")
	}
}

// TestPublicRunMany: the batched entry point through the public API — mixed
// success and failure, engine reused across the whole batch.
func TestPublicRunMany(t *testing.T) {
	prog, err := delirium.Compile("t.dlr", "main(a, b) div(a, b)", delirium.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := prog.RunMany(delirium.RunConfig{Mode: delirium.Real, Workers: 4},
		[][]delirium.Value{
			{delirium.Int(84), delirium.Int(2)},
			{delirium.Int(1), delirium.Int(0)},
			{delirium.Int(9), delirium.Int(3)},
		})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Value != delirium.Int(42) {
		t.Errorf("invocation 0 = %+v", results[0])
	}
	if results[1].Err == nil {
		t.Error("invocation 1 must fail (division by zero)")
	}
	if results[2].Err != nil || results[2].Value != delirium.Int(3) {
		t.Errorf("invocation 2 = %+v", results[2])
	}
}
