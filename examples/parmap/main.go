// Command parmap demonstrates the prelude's dynamic-width coordination
// structures — the answer to §9.2's "parallelism is hard-wired" critique.
// The same six-line program exploits however many processors exist: a
// numeric-integration operator is mapped over n intervals with parmap and
// the partial sums combined with parreduce's balanced tree.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	delirium "repro"
)

const src = `
chunk(i) integrate(i)
plus(a, b) add(a, b)

main(n) parreduce(plus, 0.0, parmap(chunk, iota(n)))
`

func main() {
	n := flag.Int("n", 64, "integration intervals (parallel width)")
	steps := flag.Int("steps", 20000, "sub-steps per interval")
	flag.Parse()

	reg := delirium.NewRegistry(delirium.Builtins())
	// integrate computes its slice of the integral of 4/(1+x^2) over
	// [0,1] — the classic pi benchmark — as one sequential operator.
	reg.MustRegister(&delirium.Operator{
		Name: "integrate", Arity: 1,
		Fn: func(ctx delirium.Context, args []delirium.Value) (delirium.Value, error) {
			i := int(args[0].(delirium.Int)) // 1-based interval index
			lo := float64(i-1) / float64(*n)
			hi := float64(i) / float64(*n)
			h := (hi - lo) / float64(*steps)
			var sum float64
			for s := 0; s < *steps; s++ {
				x := lo + (float64(s)+0.5)*h
				sum += 4 / (1 + x*x) * h
			}
			ctx.Charge(int64(*steps))
			return delirium.Float(sum), nil
		},
	})

	prog, err := delirium.Compile("pi.dlr", delirium.Prelude()+src,
		delirium.CompileOptions{Registry: reg})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("program (plus the prelude):")
	fmt.Print(src)
	fmt.Println()

	for _, workers := range []int{1, 2, 4, 8} {
		out, stats, _, err := prog.RunStats(delirium.RunConfig{
			Mode: delirium.Simulated, Workers: workers,
			Machine: delirium.CrayYMP().WithProcs(workers),
		}, delirium.Int(int64(*n)))
		if err != nil {
			log.Fatal(err)
		}
		pi := float64(out.(delirium.Float))
		fmt.Printf("procs=%d  pi≈%.10f (err %.2e)  virtual makespan=%d ticks\n",
			workers, pi, math.Abs(pi-math.Pi), stats.MakespanTicks)
	}
	fmt.Println("\nthe same program scales with the processor count: no hard-wired split width")
}
