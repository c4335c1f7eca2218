// Command delirium compiles and executes a Delirium coordination program —
// the environment's driver. Programs resolve operators from the builtin
// library plus, with -app, one of the bundled application registries.
//
//	delirium program.dlr                     run on all cores
//	delirium -workers 4 program.dlr 3 5      run with arguments
//	delirium -sim -machine cray program.dlr  deterministic simulated run
//	delirium -app queens queens.dlr          run with application operators
//	delirium -e 'add(2, mul(5, 8))'          evaluate one expression
package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"

	delirium "repro"
	"repro/cmd/internal/cli"
	"repro/internal/compile"
	"repro/internal/runtime"
)

func main() {
	var (
		workers  = flag.Int("workers", goruntime.NumCPU(), "processors (goroutines or simulated)")
		sim      = flag.Bool("sim", false, "use the deterministic simulated executor")
		machName = flag.String("machine", "cray", "simulated machine: cray, cray2, sequent, butterfly, workstation")
		app      = flag.String("app", "builtins", "operator registry: builtins, queens, retina, ray, circuit")
		optLevel = flag.Int("O", 2, "optimization level (-1 none, 1 local, 2 full)")
		timing   = flag.Bool("timing", false, "print node timings after the run")
		affName  = flag.String("affinity", "none", "simulated affinity policy: none, operator, data")
		stats    = flag.Bool("stats", false, "print execution statistics")
		nopri    = flag.Bool("no-priorities", false, "replace the 3-level ready queue with a FIFO")
		expr     = flag.String("e", "", "evaluate a single expression (builtins + prelude) and exit")
	)
	flag.Parse()
	if *expr != "" {
		v, err := delirium.Eval(*expr)
		fail(err)
		fmt.Println(v)
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: delirium [flags] program.dlr [args...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	name, src, err := cli.LoadSource(flag.Arg(0))
	fail(err)
	reg, err := cli.Registry(*app)
	fail(err)
	mach, err := cli.Machine(*machName)
	fail(err)
	aff, err := cli.Affinity(*affName)
	fail(err)

	res, err := compile.Compile(name, src, compile.Options{
		Registry: reg, OptLevel: *optLevel})
	fail(err)

	mode := runtime.Real
	if *sim {
		mode = runtime.Simulated
	}
	eng := runtime.New(res.Program, runtime.Config{
		Mode: mode, Workers: *workers, Machine: mach,
		Timing: *timing, Affinity: aff, DisablePriorities: *nopri,
	})
	out, err := eng.Run(cli.ParseArgs(flag.Args()[1:])...)
	fail(err)
	fmt.Println(out)

	if *stats {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "stats: %s\n", st)
		if *sim {
			fmt.Fprintf(os.Stderr, "virtual: makespan=%d ticks busy=%d overhead=%.2f%% utilization=%.1f%%\n",
				st.MakespanTicks, st.BusyTicks, st.OverheadFraction()*100, st.Utilization()*100)
		}
	}
	if *timing && eng.Timing() != nil {
		fmt.Fprint(os.Stderr, eng.Timing().Listing(nil))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "delirium:", err)
		os.Exit(1)
	}
}
