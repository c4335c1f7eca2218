// Command delx regenerates the paper's evaluation: every table and figure,
// plus the ablations DESIGN.md calls out. Run with no arguments for the
// full suite, or name experiments:
//
//	delx                  run everything
//	delx fig1 tab1        run selected experiments
//	delx -list            list experiment ids
//
// Experiments: fig1, tab1, tab1wall, tab2, lst1, lst2, ovh, prio, aff,
// mem, opt, walks, queens, faults, thru, stress, serve.
//
// `delx call` is a subcommand, not an experiment: it drives a running
// delserver over HTTP with concurrent runs and retrying backoff
// (see delx call -h).
//
// The faults experiment takes -retries (retry attempts per operator) and
// -timeout (per-operator execution bound; 0 for none). The stress
// experiment takes -seeds (random programs pushed through the full
// differential oracle matrix).
package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/retina"
)

type experiment struct {
	id   string
	desc string
	run  func() (string, error)
}

func all(opTimeout time.Duration, retries, seeds int) []experiment {
	return []experiment{
		{"fig1", "Figure 1: retina speedup, simulated Cray Y-MP, 1-4 procs",
			experiments.Fig1Text},
		{"tab1", "Table 1: the compiler compiled in Delirium, simulated Sequent, n=3",
			func() (string, error) { return experiments.Table1Text(240, 3) }},
		{"tab1wall", "Table 1 (wall-clock variant on this host's cores)",
			func() (string, error) {
				w := goruntime.NumCPU()
				if w > 3 {
					w = 3
				}
				return experiments.Table1WallText(600, w, 3)
			}},
		{"tab2", "Table 2: coordination model comparison",
			func() (string, error) { return experiments.Table2Text(), nil }},
		{"lst1", "§5.2 node-timing listing, unbalanced retina (post_up dominates)",
			func() (string, error) { return experiments.Listing(retina.V1) }},
		{"lst2", "§5.2 node-timing listing, balanced retina",
			func() (string, error) { return experiments.Listing(retina.V2) }},
		{"ovh", "§7 runtime overhead on the retina model",
			experiments.OverheadText},
		{"prio", "§7 priority-scheme ablation (peak live activations, 7-queens)",
			func() (string, error) { return experiments.PriorityText(7) }},
		{"aff", "§9.3 affinity ablation, Butterfly (NUMA) vs Cray (UMA)",
			experiments.AffinityText},
		{"mem", "§7 memory split: templates vs activations",
			experiments.MemoryText},
		{"opt", "§6.1 optimizer ablation: graph nodes vs runtime overhead",
			func() (string, error) { return experiments.OptAblationText(120) }},
		{"walks", "§6.2 parallel tree-walk scaling (wall-clock)",
			func() (string, error) {
				return experiments.WalksText(400000, []int{1, 2, 4}, 3), nil
			}},
		{"queens", "§3 eight queens: 92 solutions, deterministic order",
			experiments.QueensText},
		{"faults", "fault tolerance: every retina operator killed once, output identical",
			func() (string, error) { return experiments.FaultsText(opTimeout, retries) }},
		{"thru", "throughput mode: reused engine (RunMany) vs fresh engine per run",
			func() (string, error) { return experiments.ThroughputText(200) }},
		{"stress", "differential stress: random graphs through the cross-executor oracle matrix",
			func() (string, error) { return experiments.StressText(seeds) }},
		{"serve", "coordination server: registry, overload shedding, chaos, graceful drain",
			func() (string, error) { return experiments.ServeText(60) }},
	}
}

func main() {
	// `delx call` is a subcommand with its own flags (it drives a running
	// delserver rather than an in-process experiment); intercept it before
	// the experiment flag set parses.
	if len(os.Args) > 1 && os.Args[1] == "call" {
		os.Exit(runCall(os.Args[2:]))
	}
	list := flag.Bool("list", false, "list experiment ids and exit")
	opTimeout := flag.Duration("timeout", 0, "per-operator execution bound for the faults experiment (0 = none)")
	retries := flag.Int("retries", 3, "retry attempts per operator for the faults experiment")
	seeds := flag.Int("seeds", 25, "random programs for the stress experiment")
	flag.Parse()

	exps := all(*opTimeout, *retries, *seeds)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-9s %s\n", e.id, e.desc)
		}
		return
	}

	selected := exps
	if flag.NArg() > 0 {
		byID := make(map[string]experiment, len(exps))
		for _, e := range exps {
			byID[e.id] = e
		}
		selected = selected[:0]
		for _, id := range flag.Args() {
			e, ok := byID[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "delx: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.desc)
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "delx: %s failed: %v\n", e.id, err)
			failed++
			continue
		}
		fmt.Print(out)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
