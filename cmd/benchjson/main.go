// Command benchjson converts `go test -bench` text output into a stable
// JSON document for CI artifacts.
//
//	go test -bench Dispatch . | benchjson -o BENCH.json
//
// Repeated runs of the same benchmark (-count > 1) are folded by taking
// the minimum of each metric: the best observed run is the least noisy
// estimate of the true cost.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result holds one benchmark's folded metrics keyed by unit (ns/op,
// allocs/op, custom ReportMetric units, ...).
type result struct {
	iterations int64
	metrics    map[string]float64
}

// procSuffix strips the trailing GOMAXPROCS marker go test appends to
// benchmark names (Foo-8 -> Foo).
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("o", "", "write JSON here (default stdout)")
	flag.Parse()

	results, order := parse(os.Stdin)
	if len(order) == 0 {
		fail(fmt.Errorf("no benchmark lines on stdin"))
	}

	var b strings.Builder
	b.WriteString("{\n  \"benchmarks\": [\n")
	for i, name := range order {
		r := results[name]
		units := make([]string, 0, len(r.metrics))
		for u := range r.metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		fmt.Fprintf(&b, "    {\"name\": %q, \"iterations\": %d, \"metrics\": {", name, r.iterations)
		for j, u := range units {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q: %g", u, r.metrics[u])
		}
		b.WriteString("}}")
		if i < len(order)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  ]\n}\n")

	if *out == "" {
		fmt.Print(b.String())
	} else {
		fail(os.WriteFile(*out, []byte(b.String()), 0o644))
	}
}

// parse reads go-test bench lines ("BenchmarkFoo-8  100  123 ns/op  4 B/op")
// and folds repeats by per-metric minimum, preserving first-seen order.
func parse(f *os.File) (map[string]*result, []string) {
	results := make(map[string]*result)
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := procSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		r := results[name]
		if r == nil {
			r = &result{metrics: make(map[string]float64)}
			results[name] = r
			order = append(order, name)
		}
		r.iterations += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if prev, ok := r.metrics[unit]; !ok || v < prev {
				r.metrics[unit] = v
			}
		}
	}
	return results, order
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
