package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/server"
)

// runCall implements `delx call`: drive a running delserver from the CLI
// with concurrent runs, client-side retry honoring Retry-After, and a
// latency summary.
//
//	delx call -addr http://127.0.0.1:8080 -n 120 -c 8 queens6
//	delx call -args '[3, 4]' myprog
func runCall(args []string) int {
	fs := flag.NewFlagSet("delx call", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL")
	n := fs.Int("n", 1, "total runs to submit")
	c := fs.Int("c", 1, "concurrent submitters")
	argsJSON := fs.String("args", "", "JSON array of run arguments")
	timeout := fs.Duration("timeout", 0, "per-run deadline sent to the server (0 = server default)")
	attempts := fs.Int("attempts", 8, "max attempts per run (retries on 429/503 with backoff + jitter)")
	verbose := fs.Bool("v", false, "print each run's result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "delx call: exactly one program name required")
		return 2
	}
	prog := fs.Arg(0)

	req := server.RunRequest{TimeoutMS: timeout.Milliseconds()}
	if *argsJSON != "" {
		if err := json.Unmarshal([]byte(*argsJSON), &req.Args); err != nil {
			fmt.Fprintf(os.Stderr, "delx call: -args must be a JSON array: %v\n", err)
			return 2
		}
	}

	client := &server.Client{Base: *addr, MaxAttempts: *attempts}
	if *c < 1 {
		*c = 1
	}
	type outcome struct {
		latency time.Duration
		retries int
		err     error
		body    any
	}
	results := make([]outcome, *n)
	work := make(chan int)
	done := make(chan struct{})
	for w := 0; w < *c; w++ {
		go func() {
			for i := range work {
				start := time.Now()
				res, err := client.Call(context.Background(), prog, req)
				o := outcome{latency: time.Since(start), err: err}
				if res != nil {
					o.retries = res.Attempts - 1
					o.body = res.Resp.Result
				}
				results[i] = o
				done <- struct{}{}
			}
		}()
	}
	wall := time.Now()
	go func() {
		for i := 0; i < *n; i++ {
			work <- i
		}
		close(work)
	}()
	for i := 0; i < *n; i++ {
		<-done
	}
	elapsed := time.Since(wall)

	ok, failed, retried := 0, 0, 0
	lats := make([]time.Duration, 0, *n)
	for i, o := range results {
		if o.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "delx call: run %d: %v\n", i, o.err)
			continue
		}
		ok++
		retried += o.retries
		lats = append(lats, o.latency)
		if *verbose {
			body, _ := json.Marshal(o.body)
			fmt.Printf("run %d: %s (%.2fms, %d retries)\n", i, body, o.latency.Seconds()*1e3, o.retries)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p * float64(len(lats)-1))
		return lats[idx]
	}
	runsPerSec := float64(ok) / elapsed.Seconds()
	fmt.Printf("%s: %d ok, %d failed, %d client retries in %.2fs (%.1f runs/s, p50 %.2fms, p99 %.2fms)\n",
		prog, ok, failed, retried, elapsed.Seconds(), runsPerSec,
		pct(0.50).Seconds()*1e3, pct(0.99).Seconds()*1e3)
	if failed > 0 {
		return 1
	}
	return 0
}
