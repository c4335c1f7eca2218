package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// ServeText exercises the coordination server end to end, in process: it
// registers the jacobi and queens workloads (queens with seeded chaos), a
// source-posted program, then drives concurrent runs through the HTTP API
// with the retrying client — deliberately overloading a tiny admission
// queue so shedding and Retry-After backoff are visible — and finishes
// with a graceful drain, asserting every run obeyed Allocated == Freed.
func ServeText(runs int) (string, error) {
	if runs <= 0 {
		runs = 60
	}
	var b strings.Builder

	s := server.New(server.Config{
		MaxConcurrent: 2,
		QueueDepth:    2,
		DrainTimeout:  2 * time.Second,
	})
	for _, name := range []string{"jacobi", "queens6"} {
		spec, err := server.Catalog(name, 2, 1990)
		if err != nil {
			return "", err
		}
		if err := s.Register(spec); err != nil {
			return "", err
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &server.Client{Base: ts.URL, MaxAttempts: 12, Seed: 7}

	// Register a program over the wire too: compile-once happens in the
	// live service, not just at startup.
	if err := client.RegisterSource(context.Background(), server.RegisterRequest{
		Name: "sumsq", Source: "main(n) parreduce(plus, 0, parmap(sq, iota(n)))\nsq(x) mul(x, x)\nplus(a, b) add(a, b)\n",
		Prelude: true,
	}); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "programs registered: %s\n", strings.Join(s.Programs(), ", "))

	// One reference call per program, then a concurrent storm: every
	// response must be bit-identical to its reference.
	type probe struct {
		prog string
		req  server.RunRequest
	}
	probes := []probe{
		{"jacobi", server.RunRequest{}},
		{"queens6", server.RunRequest{}},
		{"sumsq", server.RunRequest{Args: []json.RawMessage{json.RawMessage("12")}}},
	}
	refs := make(map[string]string)
	for _, p := range probes {
		res, err := client.Call(context.Background(), p.prog, p.req)
		if err != nil {
			return "", fmt.Errorf("reference %s: %w", p.prog, err)
		}
		j, _ := json.Marshal(res.Resp.Result)
		refs[p.prog] = string(j)
		fmt.Fprintf(&b, "  %-8s -> %s\n", p.prog, truncate(string(j), 68))
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	mismatches, failures, retries := 0, 0, 0
	for i := 0; i < runs; i++ {
		p := probes[i%len(probes)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := client.Call(context.Background(), p.prog, p.req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				return
			}
			retries += res.Attempts - 1
			j, _ := json.Marshal(res.Resp.Result)
			if string(j) != refs[p.prog] {
				mismatches++
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(&b, "storm: %d concurrent runs over 2 slots + queue 2: %d failed, %d mismatched, %d client retries after shed\n",
		runs, failures, mismatches, retries)

	metrics := s.MetricsText()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "delserver_runs_total") ||
			strings.HasPrefix(line, "delserver_runs_shed_total") ||
			strings.HasPrefix(line, "delserver_retries_total{program=\"queens6\"}") ||
			strings.HasPrefix(line, "delserver_faults_injected_total{program=\"queens6\"}") ||
			strings.HasPrefix(line, "delserver_engine_pool_reused_total") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		return "", err
	}
	leaks := s.LeakRuns()
	fmt.Fprintf(&b, "drain: complete, %d leaked runs (Allocated==Freed on every path)\n", leaks)
	if failures > 0 || mismatches > 0 || leaks > 0 {
		return b.String(), fmt.Errorf("serve: %d failures, %d mismatches, %d leaks", failures, mismatches, leaks)
	}
	return b.String(), nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
