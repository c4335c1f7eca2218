package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/value"
)

// slowSpec compiles a cancellable slow program: each loop iteration
// allocates a block inside napb, sleeps ms, and consumes it — so a
// deadline or drain lands between operator boundaries with blocks in
// flight, exactly the teardown path the leak invariant guards.
func slowSpec(t *testing.T, name string, ms, reps int) Spec {
	t.Helper()
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{
		Name: "napb", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			b := value.NewBlockStats(make(value.FloatVec, 16), ctx.BlockStats())
			time.Sleep(time.Duration(args[0].(value.Int)) * time.Millisecond)
			return b, nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "bsum", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			var s float64
			for _, x := range args[0].(*value.Block).Data().(value.FloatVec) {
				s += x
			}
			return value.Float(s), nil
		},
	})
	src := fmt.Sprintf(`
main()
  iterate
  {
    i = 0, incr(i)
    s = 0, bsum(napb(%d))
  }
  while lt(i, %d),
  result s
`, ms, reps)
	res, err := compile.Compile(name+".dlr", src, compile.Options{Registry: reg})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return Spec{
		Name: name,
		Prog: res.Program,
		Base: runtime.Config{Mode: runtime.Real, Workers: 2, MaxOps: 10_000_000},
	}
}

func catalogSpec(t *testing.T, name string, workers int, chaos int64) Spec {
	t.Helper()
	spec, err := Catalog(name, workers, chaos)
	if err != nil {
		t.Fatalf("catalog %s: %v", name, err)
	}
	return spec
}

func mustRegister(t *testing.T, s *Server, spec Spec) {
	t.Helper()
	if err := s.Register(spec); err != nil {
		t.Fatalf("register %s: %v", spec.Name, err)
	}
}

// leakCheck asserts no run on the server violated Allocated == Freed.
func leakCheck(t *testing.T, s *Server) {
	t.Helper()
	if n := s.LeakRuns(); n != 0 {
		t.Errorf("%d runs leaked blocks (Allocated != Freed)", n)
	}
}

// TestConcurrentRunsBitIdentical: concurrent runs of multiple registered
// programs — pooled, reused engines, chaos armed on queens — return
// results bit-identical to fresh single-run baselines.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, QueueDepth: 64})
	mustRegister(t, s, catalogSpec(t, "jacobi", 2, 0))
	mustRegister(t, s, catalogSpec(t, "queens6", 2, 1990))

	// Baselines from fresh single runs through the same Execute path.
	refs := make(map[string]string)
	for _, name := range []string{"jacobi", "queens6"} {
		resp, apiErr := s.Execute(context.Background(), name, RunRequest{})
		if apiErr != nil {
			t.Fatalf("baseline %s: %v", name, apiErr)
		}
		j, _ := json.Marshal(resp.Result)
		refs[name] = string(j)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 48)
	for i := 0; i < 48; i++ {
		name := []string{"jacobi", "queens6"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, apiErr := s.Execute(context.Background(), name, RunRequest{})
			if apiErr != nil {
				errs <- fmt.Errorf("%s: %v", name, apiErr)
				return
			}
			if j, _ := json.Marshal(resp.Result); string(j) != refs[name] {
				errs <- fmt.Errorf("%s: result diverged from fresh baseline:\n got %s\nwant %s", name, j, refs[name])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	leakCheck(t, s)
}

// TestDeadlineFreesEveryBlock: a run cut off by its per-request deadline
// mid-loop (blocks in flight) frees everything, reports 504, and its
// engine returns to the pool able to serve a clean run.
func TestDeadlineFreesEveryBlock(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, QueueDepth: 8})
	mustRegister(t, s, slowSpec(t, "slow", 5, 2000)) // ~10s unbounded

	_, apiErr := s.Execute(context.Background(), "slow", RunRequest{TimeoutMS: 80})
	if apiErr == nil {
		t.Fatal("deadline-bounded run succeeded; want 504")
	}
	if apiErr.Status != http.StatusGatewayTimeout || apiErr.Code != "deadline" {
		t.Fatalf("apiErr = %d %s (%s); want 504 deadline", apiErr.Status, apiErr.Code, apiErr.Message)
	}
	leakCheck(t, s)

	// The quarantine path never fired, so the engine was repooled; a short
	// clean run must reuse it and succeed.
	resp, apiErr := s.Execute(context.Background(), "slow", RunRequest{TimeoutMS: 5000, MaxOps: 200})
	if apiErr == nil {
		t.Fatal("budget-bounded run succeeded; want budget failure")
	}
	if apiErr.Kind != "budget" {
		t.Fatalf("kind = %q, want budget (%s)", apiErr.Kind, apiErr.Message)
	}
	_ = resp
	leakCheck(t, s)
}

// TestOverloadSheds: with every slot busy and the queue full, additional
// arrivals are rejected 429 with a Retry-After hint instead of queuing
// unboundedly.
func TestOverloadSheds(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, DrainTimeout: time.Second})
	mustRegister(t, s, slowSpec(t, "slow", 10, 60)) // ~600ms per run

	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, apiErr := s.Execute(context.Background(), "slow", RunRequest{TimeoutMS: 5000})
			if apiErr == nil {
				codes <- 200
				return
			}
			if apiErr.Status == http.StatusTooManyRequests && apiErr.RetryAfterMS <= 0 {
				t.Errorf("429 without a Retry-After hint")
			}
			codes <- apiErr.Status
		}()
	}
	wg.Wait()
	close(codes)
	count := map[int]int{}
	for c := range codes {
		count[c]++
	}
	// 1 running + 1 queued admit eventually; the rest must shed.
	if count[http.StatusTooManyRequests] < 6 {
		t.Errorf("status histogram %v: want >= 6 sheds (429)", count)
	}
	if count[200] < 1 {
		t.Errorf("status histogram %v: want at least the slot-holder to succeed", count)
	}
	if s.shed.Load() < 6 {
		t.Errorf("shed counter = %d, want >= 6", s.shed.Load())
	}
	leakCheck(t, s)
}

// startWatchdog makes one bounded run so that the runtime's deadline
// watchdog — the one goroutine bounded runs leave behind, parked while none
// is in flight — exists before a test takes its goroutine baseline.
func startWatchdog(t *testing.T) {
	t.Helper()
	spec := catalogSpec(t, "queens4", 2, 0)
	if _, err := runtime.New(spec.Prog, spec.Base).Run(); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
}

// settledGoroutines waits for the goroutine count to return to before and
// reports the leak, with every goroutine's stack, if it does not.
func settledGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		goruntime.GC()
		if d := goruntime.NumGoroutine() - before; d <= 0 || time.Now().After(deadline) {
			if d > 0 {
				buf := make([]byte, 1<<16)
				t.Errorf("leaked %d goroutines\n%s", d, buf[:goruntime.Stack(buf, true)])
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainUnderLoad: SIGTERM semantics under concurrent load — admission
// stops, in-flight runs complete (or cancel past the budget), every block
// is freed, no goroutines leak, and post-drain requests get 503.
func TestDrainUnderLoad(t *testing.T) {
	startWatchdog(t)
	before := goruntime.NumGoroutine()

	s := New(Config{MaxConcurrent: 4, QueueDepth: 8, DrainTimeout: 300 * time.Millisecond})
	mustRegister(t, s, slowSpec(t, "slow", 5, 400)) // ~2s: outlives the drain budget
	mustRegister(t, s, catalogSpec(t, "queens6", 2, 0))

	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		name := []string{"slow", "queens6"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			// Outcome is free-form: complete, shed, or canceled by the
			// drain — the invariants below are what matter.
			s.Execute(context.Background(), name, RunRequest{TimeoutMS: 10_000})
		}()
	}
	for i := 0; i < 8; i++ {
		<-started
	}
	time.Sleep(50 * time.Millisecond) // let the in-flight set actually start running

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	if _, apiErr := s.Execute(context.Background(), "queens6", RunRequest{}); apiErr == nil ||
		apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("post-drain Execute = %v; want 503 draining", apiErr)
	}
	leakCheck(t, s)

	// Zero leaked goroutines: engine workers join at run end, the drain
	// canceled stragglers, and nothing holds the admission queue. Allow
	// brief settling for the last worker joins.
	settledGoroutines(t, before)
}

// TestIdleGoroutinesAfterBurst: a served run holds no goroutine past its
// end — the deadline machinery runs bounded operators inline and leaves
// only the process's one parked watchdog — so after a burst of concurrent
// runs of every catalog program and a drain, the goroutine count is back at
// its pre-burst baseline: an idle server's goroutines are O(cores), not
// O(requests served).
func TestIdleGoroutinesAfterBurst(t *testing.T) {
	startWatchdog(t)
	before := goruntime.NumGoroutine()

	s := New(Config{MaxConcurrent: 4, QueueDepth: 64})
	names := []string{"queens4", "queens6", "jacobi16", "fib"}
	for _, name := range names[:3] {
		mustRegister(t, s, catalogSpec(t, name, 2, 0))
	}
	// fib arrives as posted source, under the registration path's config.
	src, err := os.ReadFile("../../programs/fib.dlr")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := CompileSource("fib", string(src), 2, false)
	if err != nil {
		t.Fatalf("compile fib: %v", err)
	}
	mustRegister(t, s, fib)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		name := names[i%len(names)]
		req := RunRequest{TimeoutMS: 10_000}
		if name == "fib" {
			req.Args = []json.RawMessage{json.RawMessage("12")}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, apiErr := s.Execute(context.Background(), name, req); apiErr != nil {
				errs <- fmt.Errorf("%s: %v", name, apiErr)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	leakCheck(t, s)
	settledGoroutines(t, before)
}

// TestBoundedRunAllocs pins the deadline fast path: warm Reset+Run cycles of
// a catalog program under the catalog's OpTimeout allocate at most a handful
// more per run than the same engine unbounded — a bounded operator call
// allocates nothing, and it allocates its blocks from the worker's pool like
// an unbounded one. jacobi16 allocates through its operators' pools, so a
// bounded call that missed the pool shows here as hundreds of extra
// allocations and a bounded run that pools nothing. The
// minimum over a few measurements keeps a GC that empties the activation
// pools mid-measurement out of the comparison.
func TestBoundedRunAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("under the race detector sync.Pool drops pooled activations at random")
			}
		}
	}
	for _, name := range []string{"queens6", "jacobi16"} {
		t.Run(name, func(t *testing.T) {
			spec := catalogSpec(t, name, 2, 0)
			if spec.Base.OpTimeout <= 0 {
				t.Fatalf("catalog %s is not bounded; the test is vacuous", name)
			}
			unbounded := spec.Base
			unbounded.OpTimeout = 0
			allocs := func(cfg runtime.Config) (float64, int64) {
				e := runtime.New(spec.Prog, cfg)
				best := -1.0
				for i := 0; i < 3; i++ {
					n := testing.AllocsPerRun(20, func() {
						if err := e.Reset(); err != nil {
							t.Fatal(err)
						}
						v, err := e.Run()
						if err != nil {
							t.Fatal(err)
						}
						value.Release(v, &e.Stats().Blocks)
					})
					if best < 0 || n < best {
						best = n
					}
				}
				return best, e.Stats().PooledAllocs
			}
			b, bPooled := allocs(spec.Base)
			u, uPooled := allocs(unbounded)
			t.Logf("allocations per run: bounded %.0f, unbounded %.0f; pooled per run: bounded %d, unbounded %d",
				b, u, bPooled, uPooled)
			if b > u+4 {
				t.Errorf("bounded run allocates %.0f, unbounded %.0f: the deadline costs %.0f per run, want at most 4",
					b, u, b-u)
			}
			if bPooled == 0 {
				t.Error("bounded run pooled no allocation; want its operators served from the worker's pool")
			}
		})
	}
}

// TestHTTPSurface drives the full HTTP API through a live listener:
// health/ready, register-over-the-wire, run, metrics content, 404 and 400
// shapes, and readyz flipping during drain.
func TestHTTPSurface(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, QueueDepth: 4})
	mustRegister(t, s, catalogSpec(t, "queens6", 2, 1990))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz = %d, want 200", code)
	}

	client := &Client{Base: ts.URL, MaxAttempts: 6, Seed: 3}
	res, err := client.Call(context.Background(), "queens6", RunRequest{})
	if err != nil {
		t.Fatalf("call queens6: %v", err)
	}
	out, _ := json.Marshal(res.Resp.Result)
	if !strings.Contains(string(out), `"count":4`) {
		t.Errorf("queens6 result = %s, want 4 solutions", out)
	}

	// Unknown program: 404, structured error, not retried by the client.
	if _, err := client.Call(context.Background(), "nope", RunRequest{}); err == nil {
		t.Error("unknown program: want error")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != 404 || ae.Code != "unknown_program" {
		t.Errorf("unknown program error = %v, want 404 unknown_program", err)
	}

	// Malformed args: 400 before admission.
	if _, apiErr := s.Execute(context.Background(), "queens6",
		RunRequest{Args: []json.RawMessage{json.RawMessage(`{"a":1}`)}}); apiErr == nil || apiErr.Status != 400 {
		t.Errorf("object arg: %v, want 400", apiErr)
	}

	// The deprecated "fuse" and "memplan" fields are accepted and ignored.
	if err := client.RegisterSource(context.Background(), RegisterRequest{
		Name: "sum3", Source: "main() add(1, 2)", Fuse: true, MemPlan: true}); err != nil {
		t.Fatalf("register with deprecated fields: %v", err)
	}
	if res, err := client.Call(context.Background(), "sum3", RunRequest{}); err != nil {
		t.Errorf("call sum3: %v", err)
	} else if out, _ := json.Marshal(res.Resp.Result); string(out) != "3" {
		t.Errorf("sum3 result = %s, want 3", out)
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, `delserver_runs_total{program="queens6"}`) ||
		!strings.Contains(body, "delserver_runs_shed_total") {
		t.Errorf("/metrics = %d, missing expected series:\n%s", code, body)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain /readyz = %d, want 503", code)
	}
	leakCheck(t, s)
}

// TestChaosRunsBitIdentical: with seeded fault injection armed, queens
// runs still return the exact fault-free result — the retry machinery
// recovers deterministically, visible in the metrics counters.
func TestChaosRunsBitIdentical(t *testing.T) {
	clean := New(Config{MaxConcurrent: 2, QueueDepth: 8})
	mustRegister(t, clean, catalogSpec(t, "queens6", 2, 0))
	chaotic := New(Config{MaxConcurrent: 2, QueueDepth: 8})
	mustRegister(t, chaotic, catalogSpec(t, "queens6", 2, 1990))

	ref, apiErr := clean.Execute(context.Background(), "queens6", RunRequest{})
	if apiErr != nil {
		t.Fatalf("clean run: %v", apiErr)
	}
	refJSON, _ := json.Marshal(ref.Result)

	var faults int64
	for i := 0; i < 6; i++ {
		resp, apiErr := chaotic.Execute(context.Background(), "queens6", RunRequest{})
		if apiErr != nil {
			t.Fatalf("chaos run %d: %v", i, apiErr)
		}
		if j, _ := json.Marshal(resp.Result); string(j) != string(refJSON) {
			t.Errorf("chaos run %d diverged:\n got %s\nwant %s", i, j, refJSON)
		}
		faults += resp.Stats.FaultsInjected
	}
	if faults == 0 {
		t.Error("chaos seed armed but no faults fired; the exercise is vacuous")
	}
	leakCheck(t, chaotic)
	leakCheck(t, clean)
}
