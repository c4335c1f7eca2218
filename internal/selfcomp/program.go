package selfcomp

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/operator"
	"repro/internal/runtime"
)

// programSrc is the parallel compiler's coordination framework — "we remove
// a 100 line main module and replace it with 100 lines of Delirium" (§6.4).
// One fork/join per pass, chained through the compilation state.
const programSrc = `
main()
  let st0 = lex()
      <p1,p2,p3> = parse_split(st0)
      q1 = parse_bite(p1)
      q2 = parse_bite(p2)
      q3 = parse_bite(p3)
      st1 = parse_join(q1,q2,q3)

      <m1,m2,m3> = macro_split(st1)
      n1 = macro_bite(m1)
      n2 = macro_bite(m2)
      n3 = macro_bite(m3)
      st2 = macro_join(n1,n2,n3)

      <e1,e2,e3> = env_split(st2)
      f1 = env_bite(e1)
      f2 = env_bite(e2)
      f3 = env_bite(e3)
      st3 = env_join(f1,f2,f3)

      <o1,o2,o3> = opt_split(st3)
      g1 = opt_bite(o1)
      g2 = opt_bite(o2)
      g3 = opt_bite(o3)
      st4 = opt_join(g1,g2,g3)

      <i1,i2,i3> = inline_split(st4)
      h1 = inline_bite(i1)
      h2 = inline_bite(i2)
      h3 = inline_bite(i3)
      st5 = inline_join(h1,h2,h3)

      <c1,c2,c3> = graph_split(st5)
      d1 = graph_bite(c1)
      d2 = graph_bite(c2)
      d3 = graph_bite(c3)
  in graph_join(d1,d2,d3)
`

// Source returns the coordination program text.
func Source() string { return programSrc }

// passOf maps compiler-operator name prefixes to Table 1 pass names.
var passOf = map[string]string{
	"lex": "Lexing", "parse": "Parsing", "macro": "Macro Expansion", "env": "Env Analysis",
	"opt": "Optimization", "inline": "Optimization", "graph": "Graph Conversion",
}

// opPass maps operator names to Table 1 pass names ("" for other nodes).
func opPass(op string) string {
	prefix, _, _ := strings.Cut(op, "_")
	return passOf[prefix]
}

// Result is one self-hosted compilation run.
type Result struct {
	// Graph is the compiled program (identical to the sequential driver's
	// output for the same source).
	Graph *graph.Program
	// Warnings carries the non-fatal diagnostics, as compile.Result does.
	Warnings []string
	// Mode is the executor the compiler ran on; it fixes the time unit.
	Mode runtime.Mode
	// PassTicks maps Table 1 pass names to elapsed time: the span from the
	// pass's first operator start to its last operator end, in virtual
	// ticks (Simulated) or nanoseconds (Real).
	PassTicks map[string]int64
	// TotalTicks is the whole compilation's makespan, in the same unit.
	TotalTicks int64
}

// Compile runs the parallel compiler as a Delirium program with the given
// executor and worker count, compiling (file, src) against reg (nil
// selects the builtins). Simulated runs model a Sequent Symmetry with
// `workers` processors and are deterministic; Real runs take wall time on
// this host's cores. Either way the graph and diagnostics are the
// sequential driver's.
func Compile(file, src string, reg *operator.Registry, mode runtime.Mode, workers int) (*Result, error) {
	if reg == nil {
		reg = operator.Builtins()
	}
	ops := Operators(file, src, reg)
	prog, err := compile.Compile("selfcomp.dlr", Source(), compile.Options{Registry: ops})
	if err != nil {
		return nil, fmt.Errorf("selfcomp: compiling the compiler's framework: %w", err)
	}
	eng := runtime.New(prog.Program, runtime.Config{
		Mode:    mode,
		Workers: workers,
		Machine: machine.Sequent().WithProcs(workers),
		Timing:  true,
		MaxOps:  100_000_000,
	})
	out, err := eng.Run()
	var perr *passError
	if errors.As(err, &perr) {
		return nil, perr.diags
	}
	if err != nil {
		return nil, err
	}
	st, err := stateOf(out, "selfcomp result")
	if err != nil {
		return nil, err
	}
	res := &Result{Graph: st.out, Warnings: st.diags.Warnings(), Mode: mode,
		PassTicks: make(map[string]int64)}

	starts := make(map[string]int64)
	ends := make(map[string]int64)
	for _, e := range eng.Timing().Entries() {
		pass := opPass(e.Name)
		if pass == "" {
			continue
		}
		if cur, ok := starts[pass]; !ok || e.Start < cur {
			starts[pass] = e.Start
		}
		if end := e.Start + e.Ticks; end > ends[pass] {
			ends[pass] = end
		}
	}
	for pass, s0 := range starts {
		res.PassTicks[pass] = ends[pass] - s0
	}
	res.TotalTicks = eng.Stats().MakespanTicks
	if mode == runtime.Real {
		res.TotalTicks = eng.Stats().RealNanos
	}
	return res, nil
}

// Table1Text regenerates Table 1: the same workload compiled by the
// self-hosted parallel compiler on one and on `workers` simulated Sequent
// processors, with per-pass elapsed virtual times.
func Table1Text(funcs, workers int) (string, error) {
	src := compile.Generate(funcs, 1990)
	seq, err := Compile("workload.dlr", src, nil, runtime.Simulated, 1)
	if err != nil {
		return "", err
	}
	par, err := Compile("workload.dlr", src, nil, runtime.Simulated, workers)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("Table 1: The Parallel Compiler (on a simulated Sequent)\n"+
		"workload: %d synthetic functions; times in virtual msec (1000 ticks = 1 msec)\n"+
		"paper:  lexing 91->91, parsing 200->78, macro 117->50, env 300->120,\n"+
		"        opt 350->160, graph 380->160, totals 1438->659 (n=3)\n\n", funcs)
	return out + Table(seq, par, workers), nil
}

// Table renders two runs' pass times side by side in the format of Table 1,
// in milliseconds (virtual ones for Simulated runs).
func Table(seq, par *Result, workers int) string {
	perMs := 1000.0
	if seq.Mode == runtime.Real {
		perMs = 1e6
	}
	out := fmt.Sprintf("%-18s %12s %16s %9s\n", "Pass", "Sequential", fmt.Sprintf("Parallel (n=%d)", workers), "Speedup")
	var tseq, tpar int64
	for _, name := range compile.PassNames {
		a, b := seq.PassTicks[name], par.PassTicks[name]
		tseq += a
		tpar += b
		sp := 0.0
		if b > 0 {
			sp = float64(a) / float64(b)
		}
		out += fmt.Sprintf("%-18s %12.1f %16.1f %8.2fx\n", name, float64(a)/perMs, float64(b)/perMs, sp)
	}
	out += fmt.Sprintf("%-18s %12.1f %16.1f %8.2fx\n", "Totals",
		float64(tseq)/perMs, float64(tpar)/perMs, float64(tseq)/float64(tpar))
	return out
}
