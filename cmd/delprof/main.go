// Command delprof is the node timing profiler of §5.2: it runs a program
// with individual node timing turned on and prints the per-invocation
// listing ("call of convol_bite took 1059919") followed by a per-operator
// summary sorted by total time — the tool the paper's authors used to find
// and fix load imbalance in under a day.
//
//	delprof -app queens queens.dlr
//	delprof -sim -machine cray program.dlr     deterministic virtual ticks
//	delprof -top 5 program.dlr                 summary only, five rows
//	delprof -trace out.json program.dlr        Chrome/Perfetto trace export
//	delprof -critpath program.dlr              critical-path analysis
//	delprof -runs 200 program.dlr              throughput mode: 200 runs on one reused engine
//	delprof -sim=false -steals program.dlr     per-worker steal/park report
//	delprof -sim=false -runs 200 -cpuprofile cpu.out -memprofile mem.out program.dlr
//	                                           pprof profiles of the run loop
//
// -trace writes the structured execution trace in Chrome trace-event JSON
// (load it at ui.perfetto.dev): one track per worker, a slice per node
// execution, flow arrows along data dependencies, and instants for steals,
// parks, and activation traffic. -critpath replays the recorded node times
// over the dependency edges and reports the longest weighted chain,
// per-operator slack, and an imbalance verdict — the §5.2 workflow made
// mechanical.
//
// -cpuprofile writes a runtime/pprof CPU profile of the run loop (every -runs
// execution, not compilation); -memprofile writes the allocation profile once
// the loop is done. It records every allocation (MemProfileRate 1), so its
// alloc_objects counts are exact rather than sampled, and it counts from
// start-up: with -runs in the hundreds the run loop dominates it. Read it with
// `go tool pprof -sample_index=alloc_objects`. Profiled runs are untimed, as
// a serving engine runs, so the listing and summary stay empty.
package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/compile"
	"repro/internal/runtime"
)

func main() {
	var (
		workers  = flag.Int("workers", goruntime.NumCPU(), "processors")
		sim      = flag.Bool("sim", true, "use the simulated executor (deterministic ticks)")
		machName = flag.String("machine", "cray", "simulated machine profile")
		app      = flag.String("app", "builtins", "operator registry")
		top      = flag.Int("top", 0, "print only the top-N summary rows (0 = listing + full summary)")
		filter   = flag.String("ops", "", "comma-separated operator names to list (empty = all)")
		gantt    = flag.Int("gantt", 0, "render a per-processor timeline this many cells wide")
		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file here")
		critpath = flag.Bool("critpath", false, "print critical-path analysis and imbalance verdict")
		runs     = flag.Int("runs", 1, "execute the program this many times on one reused engine (throughput mode); listings describe the last run")
		steals   = flag.Bool("steals", false, "print the per-worker steal/park report (enables tracing)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run loop here")
		memProf  = flag.String("memprofile", "", "write an allocation profile (every allocation recorded) here after the run loop")
	)
	flag.Parse()
	if *memProf != "" {
		goruntime.MemProfileRate = 1
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: delprof [flags] program.dlr [args...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	name, src, err := cli.LoadSource(flag.Arg(0))
	fail(err)
	reg, err := cli.Registry(*app)
	fail(err)
	mach, err := cli.Machine(*machName)
	fail(err)

	mode := runtime.Real
	unit := "ns"
	if *sim {
		mode = runtime.Simulated
		unit = "ticks"
	}

	res, err := compile.Compile(name, src, compile.Options{Registry: reg})
	fail(err)
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}
	eng := runtime.New(res.Program, runtime.Config{
		Mode: mode, Workers: *workers, Machine: mach, Timing: *cpuProf == "" && *memProf == "",
		Trace: *traceOut != "" || *critpath || *steals})
	args := cli.ParseArgs(flag.Args()[1:])
	// Throughput mode: re-run the same program on the same engine, Reset
	// between runs, so the warmed activation pools, block free lists, and
	// scheduler serve every run after the first. The timing log, trace, and
	// counters below describe the final run.
	var cpuFile *os.File
	if *cpuProf != "" {
		cpuFile, err = os.Create(*cpuProf)
		fail(err)
		fail(pprof.StartCPUProfile(cpuFile))
	}
	wall := time.Now()
	out, err := eng.Run(args...)
	fail(err)
	for r := 1; r < *runs; r++ {
		fail(eng.Reset())
		out, err = eng.Run(args...)
		fail(err)
	}
	elapsed := time.Since(wall)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		fail(cpuFile.Close())
	}
	if *memProf != "" {
		fail(writeHeapProfile(*memProf))
	}
	if *runs > 1 {
		fmt.Fprintf(os.Stderr, "throughput: %d runs on one engine in %v (%.0f runs/sec, %v/run)\n",
			*runs, elapsed.Round(time.Microsecond),
			float64(*runs)/elapsed.Seconds(), (elapsed / time.Duration(*runs)).Round(time.Microsecond))
	}
	fmt.Fprintf(os.Stderr, "result: %v\n\n", out)

	log := eng.Timing()
	if log == nil { // profiled: untimed
		log = runtime.NewTimingLog()
	}
	if *top == 0 {
		var names map[string]bool
		if *filter != "" {
			names = make(map[string]bool)
			start := 0
			for i := 0; i <= len(*filter); i++ {
				if i == len(*filter) || (*filter)[i] == ',' {
					if i > start {
						names[(*filter)[start:i]] = true
					}
					start = i + 1
				}
			}
		}
		fmt.Print(log.Listing(names))
		fmt.Println()
	}

	if *gantt > 0 {
		fmt.Println(log.Gantt(*gantt))
		loads := log.ProcLoads()
		for p, l := range loads {
			fmt.Printf("proc %2d busy %d %s\n", p, l, unit)
		}
		fmt.Println()
	}

	fmt.Printf("%-20s %8s %14s %14s %14s\n", "operator", "calls", "total "+unit, "mean "+unit, "max "+unit)
	rows := log.Summarize()
	if *top > 0 && *top < len(rows) {
		rows = rows[:*top]
	}
	for _, s := range rows {
		fmt.Printf("%-20s %8d %14d %14d %14d\n",
			s.Name, s.Calls, s.Total, cli.MeanWeight(s.Total, s.Calls), s.Max)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		err = eng.Trace().WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fail(err)
		fmt.Fprintf(os.Stderr, "trace: wrote %s (load at ui.perfetto.dev)\n", *traceOut)
	}
	if *critpath {
		fmt.Println()
		if cp := eng.Trace().CriticalPath(); cp != nil {
			fmt.Print(cp.Report())
			fmt.Print(runtime.RenderAdvisories(cp.Advise(*workers)))
		} else {
			fmt.Println("critical path: no completed node executions recorded")
		}
	}
	if *steals {
		fmt.Println()
		fmt.Print(eng.Trace().SchedReport().Render())
	}
}

// writeHeapProfile writes the allocation profile after a GC, so every
// allocation so far has been published to it.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	goruntime.GC()
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "delprof:", err)
		os.Exit(1)
	}
}
