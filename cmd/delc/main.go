// Command delc is the Delirium compiler front end: it compiles a program,
// reports per-pass timings and optimizer statistics, and can dump tokens,
// the analyzed tree, or the coordination graphs in Graphviz DOT form (the
// environment's visualization tool).
//
//	delc program.dlr                 compile, report pass times
//	delc -dot program.dlr            emit the coordination graphs as DOT
//	delc -ast program.dlr            print the analyzed program
//	delc -fmt program.dlr            pretty-print (format) the program
//	delc -tokens program.dlr         print the token stream
//	delc -memplan program.dlr        run the memory-plan pass, print the plan
//	delc -fuse program.dlr           run operator fusion, print the supernode plan
//	delc -O -1 ...                   optimization level
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/source"
)

func main() {
	var (
		app      = flag.String("app", "builtins", "operator registry: builtins, queens, retina, ray, circuit")
		optLevel = flag.Int("O", 2, "optimization level (-1 none, 1 local, 2 full)")
		dot      = flag.Bool("dot", false, "emit coordination graphs as Graphviz DOT")
		dumpAST  = flag.Bool("ast", false, "print the analyzed program")
		format   = flag.Bool("fmt", false, "parse and pretty-print the program, then exit")
		tokens   = flag.Bool("tokens", false, "print the token stream and exit")
		memplan  = flag.Bool("memplan", false, "run the memory-plan pass and print the ownership report")
		fuse     = flag.Bool("fuse", false, "run the operator-fusion pass and print the supernode plan")
		quiet    = flag.Bool("q", false, "suppress the pass-time report")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: delc [flags] program.dlr")
		flag.PrintDefaults()
		os.Exit(2)
	}

	name, src, err := cli.LoadSource(flag.Arg(0))
	fail(err)

	if *tokens {
		var diags source.DiagList
		toks := lexer.New(name, src, &diags).ScanAll()
		fmt.Print(lexer.Describe(toks))
		fail(diags.Err())
		return
	}

	if *format {
		var diags source.DiagList
		prog := parser.Parse(name, src, &diags)
		fail(diags.Err())
		fmt.Print(ast.PrintProgram(prog))
		return
	}

	reg, err := cli.Registry(*app)
	fail(err)
	res, err := compile.Compile(name, src, compile.Options{
		Registry: reg, OptLevel: *optLevel, MemPlan: *memplan, Fuse: *fuse})
	fail(err)
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, w)
	}

	switch {
	case *dot:
		fmt.Print(res.Program.Dot())
	case *dumpAST:
		fmt.Print(ast.PrintProgram(res.Info.Prog))
	case *memplan:
		fmt.Print(res.MemPlan.Report())
	case *fuse:
		fmt.Print(res.FusePlan.Report())
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "%-18s %10s\n", "Pass", "Time")
		for _, p := range res.Passes {
			fmt.Fprintf(os.Stderr, "%-18s %8.2fms\n", p.Name, float64(p.Nanos)/1e6)
		}
		fmt.Fprintf(os.Stderr, "%-18s %8.2fms\n", "Total", float64(res.TotalNanos())/1e6)
		fmt.Fprintf(os.Stderr, "optimizer: %s\n", res.OptStats)
		fmt.Fprintf(os.Stderr, "templates: %d, graph nodes: %d\n",
			len(res.Program.Templates), res.Program.NodeCount())
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "delc:", err)
		os.Exit(1)
	}
}
