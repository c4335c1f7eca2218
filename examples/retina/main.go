// Command retina runs case study #1 (§5): the convolution-based retina
// model for motion detection, in both the first (unbalanced) and the
// load-balanced coordination programs. It prints the §5.2 node-timing
// listings that exposed the imbalance, and the Figure 1 speedup curve on
// the simulated Cray Y-MP.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/machine"
	"repro/internal/retina"
	"repro/internal/runtime"
)

func main() {
	size := flag.Int("size", 64, "grid width and height")
	steps := flag.Int("steps", 2, "simulation timesteps")
	listings := flag.Bool("listings", true, "print the §5.2 node timing listings")
	curve := flag.Bool("curve", true, "print the Figure 1 speedup curve")
	flag.Parse()

	cfg := retina.Config{W: *size, H: *size, K: 5, Slabs: 4, Timesteps: *steps,
		TargetsPerQuarter: 16, TargetWork: 1600, Seed: 1990}

	// Correctness first: both programs must equal the sequential code.
	ref := retina.Reference(cfg)
	for _, v := range []retina.Version{retina.V1, retina.V2} {
		scene, eng, err := retina.Run(cfg, v, runtime.Config{
			Mode: runtime.Real, Workers: 4, MaxOps: 500_000_000})
		if err != nil {
			log.Fatalf("%s: %v", v, err)
		}
		status := "MATCHES"
		if !retina.Equal(scene, ref) {
			status = "DIFFERS FROM"
		}
		fmt.Printf("%s version: response %.3f, %s sequential reference; copies=%d\n",
			v, scene.Response(), status, eng.Stats().Blocks.Copies)
	}
	fmt.Println()

	if *listings {
		for _, v := range []retina.Version{retina.V1, retina.V2} {
			_, eng, err := retina.Run(cfg, v, runtime.Config{
				Mode: runtime.Simulated, Workers: 1, Timing: true,
				Machine: machine.CrayYMP(), MaxOps: 500_000_000})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("--- node timings, %s version (first timestep) ---\n", v)
			names := map[string]bool{"convol_split": true, "convol_bite": true,
				"post_up": true, "update_split": true, "update_bite": true, "done_up": true}
			listing := eng.Timing().Listing(names)
			printFirst(listing, 14)
			fmt.Println()
		}
	}

	if *curve {
		fmt.Println("Figure 1: speedup on simulated Cray Y-MP (sequential = 1)")
		base := map[retina.Version]int64{}
		for _, v := range []retina.Version{retina.V1, retina.V2} {
			for procs := 1; procs <= 4; procs++ {
				_, eng, err := retina.Run(cfg, v, runtime.Config{
					Mode: runtime.Simulated, Workers: procs,
					Machine: machine.CrayYMP(), MaxOps: 500_000_000})
				if err != nil {
					log.Fatal(err)
				}
				mk := eng.Stats().MakespanTicks
				if procs == 1 {
					base[v] = mk
				}
				fmt.Printf("  %s procs=%d speedup=%.2f\n", v, procs, float64(base[v])/float64(mk))
			}
		}
		fmt.Println("paper: ~1.0 / ~2.0 / ~2.0 / 3.3 for the balanced version")
	}
}

func printFirst(s string, lines int) {
	count := 0
	start := 0
	for i := 0; i < len(s) && count < lines; i++ {
		if s[i] == '\n' {
			fmt.Println(s[start:i])
			start = i + 1
			count++
		}
	}
	if start < len(s) && count < lines {
		fmt.Println(s[start:])
	}
}
