// Command eightqueens executes the paper's §3 parallel recursive
// backtracking program and prints the solutions, demonstrating that the
// result — including the order of the merged solutions — is identical on
// every worker count.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/queens"
	"repro/internal/runtime"
)

func main() {
	n := flag.Int("n", 8, "board size")
	workers := flag.Int("workers", 4, "worker goroutines")
	show := flag.Int("show", 4, "solutions to print (0 = all)")
	flag.Parse()

	fmt.Println("coordination framework (the paper's §3 program):")
	fmt.Print(queens.Program(*n))
	fmt.Println()

	sols, eng, err := queens.Run(*n, runtime.Config{
		Mode: runtime.Real, Workers: *workers, MaxOps: 200_000_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-queens: %d solutions (reference count %d)\n",
		*n, len(sols), queens.CountReference(*n))
	fmt.Printf("runtime: %s\n\n", eng.Stats())

	limit := *show
	if limit == 0 || limit > len(sols) {
		limit = len(sols)
	}
	for i := 0; i < limit; i++ {
		fmt.Printf("solution %d: %v\n", i+1, sols[i])
		printBoard(sols[i])
	}
	if limit < len(sols) {
		fmt.Printf("... and %d more\n", len(sols)-limit)
	}
}

func printBoard(sol []int) {
	n := len(sol)
	for r := 0; r < n; r++ {
		for c := 1; c <= n; c++ {
			if sol[r] == c {
				fmt.Print(" Q")
			} else {
				fmt.Print(" .")
			}
		}
		fmt.Println()
	}
	fmt.Println()
}
