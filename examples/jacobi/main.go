// Command jacobi solves the Laplace equation on a 2-D grid with Jacobi
// iteration — the array-layer workload shape that §2 says dominates
// scientific code (see internal/jacobi for the operators and the
// coordination program). The parallel result is bit-identical to a plain
// sequential solver.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/jacobi"
	"repro/internal/runtime"
)

func main() {
	n := flag.Int("n", 96, "grid size")
	tol := flag.Float64("tol", 1e-3, "convergence tolerance")
	workers := flag.Int("workers", 4, "worker goroutines")
	flag.Parse()

	cfg := jacobi.Config{N: *n, Tol: *tol}
	fmt.Println("coordination framework:")
	fmt.Print(jacobi.Source(cfg))
	fmt.Println()

	s, eng, err := jacobi.Run(cfg, runtime.Config{
		Mode: runtime.Real, Workers: *workers, MaxOps: 500_000_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged after %d sweeps, residual %.2e (%s)\n", s.Sweeps, s.Residual, eng.Stats())

	if jacobi.Matches(s, jacobi.Reference(cfg)) {
		fmt.Println("solution is bit-identical to the sequential solver")
	} else {
		fmt.Println("WARNING: differs from sequential solver")
	}
	mid := s.U[(*n/2)*(*n)+(*n/2)]
	fmt.Printf("temperature at grid center: %.4f\n", mid)
}
