package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/jacobi"
	"repro/internal/operator"
	"repro/internal/queens"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/value"
)

// serve_open traffic: seeded arrivals at a fixed rate over two keep-alive
// connections, drawn from a fixed mix.
const (
	serveRate    = 120.0 // requests per second, about a third of what the box sustains
	serveClients = 2     // sender goroutines, one connection each
	fibArg       = 12
)

type reqKind int

const (
	kindQueens4 reqKind = iota
	kindFib
	kindQueens6
	kindJacobi16
	kindRegister
	numKinds
)

var kindName = [numKinds]string{"queens4", "fib", "queens6", "jacobi16", "register"}

// mixPer100 is how many of every 100 consecutive requests are of each kind.
// The mix is dealt in shuffled blocks of 100 rather than drawn per request,
// so two seeds carry the same work in a different order.
var mixPer100 = [numKinds]int{40, 25, 15, 18, 2}

const mixBlock = 100

type request struct {
	due  time.Duration // offset from the segment's start
	kind reqKind
}

// makeSchedule returns n requests over dur: one arrival in each slot of
// dur/n, at a seeded uniform offset within it. Gaps run from nothing to two
// slots, so requests still collide and queue, but the offered load is even
// along the segment. Exponential gaps were tried first: at this rate their
// bursts alone moved op_ms_p50 by 16 % between seeds (3 % with slots), which
// is more than any change to the server would.
func makeSchedule(rng *rand.Rand, n int, dur time.Duration) []request {
	reqs := make([]request, n)
	slot := float64(dur) / float64(n)
	var block []reqKind
	for i := range reqs {
		if len(block) == 0 {
			for k, c := range mixPer100 {
				for j := 0; j < c; j++ {
					block = append(block, reqKind(k))
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		reqs[i] = request{due: time.Duration((float64(i) + rng.Float64()) * slot), kind: block[0]}
		block = block[1:]
	}
	return reqs
}

// outcome is what one request came to.
type outcome struct {
	kind      reqKind
	late      time.Duration // send start − due
	latency   time.Duration // response read − due
	roundtrip time.Duration // response read − send start
	elapsedMS float64       // the server's own elapsed_ms (run requests)
	reused    bool
	status    int
	err       error
}

type serveInstance struct {
	srv      *server.Server
	httpSrv  *http.Server
	served   chan error // http.Server.Serve's return
	base     string
	client   *http.Client
	rng      *rand.Rand
	check    [numKinds]func(json.RawMessage) error
	body     [numKinds][]byte
	sumloop  string
	regCount atomic.Int64
	last     []outcome // the most recent segment's requests, for layers
	nextOp   int
}

// repoFile reads a file of the repository the benchmark sits in.
func repoFile(rel string) ([]byte, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(root, rel))
}

func setUpServe(seed int64, p plan) (instance, error) {
	s, err := newServe(seed, p)
	if err != nil {
		return nil, err // not s: a nil *serveInstance is a non-nil instance
	}
	return s, nil
}

func newServe(seed int64, p plan) (*serveInstance, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	fibSrc, err := repoFile("programs/fib.dlr")
	if err != nil {
		return nil, err
	}
	sumloopSrc, err := repoFile("programs/sumloop.dlr")
	if err != nil {
		return nil, err
	}

	s := &serveInstance{rng: rand.New(rand.NewSource(seed)), sumloop: string(sumloopSrc)}
	s.srv = server.New(server.Config{MaxConcurrent: 2, QueueDepth: 64, Workers: workers})
	for _, name := range []string{"queens4", "queens6", "jacobi16"} {
		spec, err := server.Catalog(name, workers, 0)
		if err != nil {
			return nil, err
		}
		if err := s.srv.Register(spec); err != nil {
			return nil, err
		}
	}

	// References: committed counts cross-checked against the sequential
	// solvers, and the jacobi checksum the catalog renderer would print for
	// the sequential solution.
	for _, q := range []struct {
		kind reqKind
		n    int
	}{{kindQueens4, 4}, {kindQueens6, 6}} {
		n, want := q.n, exp.QueensSolutions[fmt.Sprint(q.n)]
		if ref := queens.CountReference(n); ref != want {
			return nil, fmt.Errorf("queens.CountReference(%d) = %d, expected file says %d", n, ref, want)
		}
		s.check[q.kind] = func(raw json.RawMessage) error {
			var r struct {
				Count     int     `json:"count"`
				Solutions [][]int `json:"solutions"`
			}
			if err := json.Unmarshal(raw, &r); err != nil {
				return err
			}
			if r.Count != len(r.Solutions) {
				return fmt.Errorf("queens%d: count %d but %d boards", n, r.Count, len(r.Solutions))
			}
			return checkBoards(r.Solutions, n, want)
		}
	}
	s.check[kindFib] = func(raw json.RawMessage) error {
		var got int64
		if err := json.Unmarshal(raw, &got); err != nil {
			return err
		}
		if got != exp.Fib12 {
			return fmt.Errorf("fib(%d) = %d, want %d", fibArg, got, exp.Fib12)
		}
		return nil
	}
	ref := jacobi.Reference(jacobi.Config{N: 16, Tol: 1e-2, MaxSweeps: 2000})
	var sum float64
	for _, x := range ref.U {
		sum += x
	}
	wantSum := fmt.Sprintf("%016x", math.Float64bits(sum))
	s.check[kindJacobi16] = func(raw json.RawMessage) error {
		var r struct {
			Checksum string `json:"checksum"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if r.Checksum != wantSum {
			return fmt.Errorf("jacobi16 checksum %s, want %s", r.Checksum, wantSum)
		}
		return nil
	}
	s.body[kindFib] = []byte(fmt.Sprintf(`{"args":[%d]}`, fibArg))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}

	// fib arrives the way a user's program does: posted as source.
	if o := s.register("fib", string(fibSrc)); o.err != nil {
		s.close()
		return nil, fmt.Errorf("register fib: %w", o.err)
	}
	// Warm-up: the same mix, closed loop, twice the usual count because
	// these operations are a tenth the size of the other workloads'.
	for _, r := range makeSchedule(s.rng, 2*p.warmup, 0) {
		if o := s.send(r.kind); o.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", kindName[r.kind], o.err)
		}
	}
	return s, nil
}

func (s *serveInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serveErr := <-s.served; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	s.client.CloseIdleConnections()
	if leaks := s.srv.LeakRuns(); err == nil && leaks != 0 {
		err = fmt.Errorf("server counted %d leaked runs", leaks)
	}
	return err
}

// post sends one request and reads the whole response.
func (s *serveInstance) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *serveInstance) register(name, src string) outcome {
	body, err := json.Marshal(server.RegisterRequest{Name: name, Source: src, Fuse: true, MemPlan: true})
	if err != nil {
		return outcome{kind: kindRegister, err: err}
	}
	t0 := time.Now()
	status, data, err := s.post("/programs", body)
	o := outcome{kind: kindRegister, roundtrip: time.Since(t0), status: status, err: err}
	if err == nil && status != http.StatusCreated {
		o.err = fmt.Errorf("POST /programs: status %d: %.200s", status, data)
	}
	return o
}

// send issues one request of the given kind and checks the answer. The
// round trip ends when the body has been read; decoding and checking follow.
func (s *serveInstance) send(kind reqKind) outcome {
	if kind == kindRegister {
		return s.register(fmt.Sprintf("sumloop-%d", s.regCount.Add(1)), s.sumloop)
	}
	t0 := time.Now()
	status, data, err := s.post("/run/"+kindName[kind], s.body[kind])
	o := outcome{kind: kind, roundtrip: time.Since(t0), status: status, err: err}
	if err != nil {
		return o
	}
	if status != http.StatusOK {
		o.err = fmt.Errorf("POST /run/%s: status %d: %.200s", kindName[kind], status, data)
		return o
	}
	var resp struct {
		Result    json.RawMessage `json:"result"`
		ElapsedMS float64         `json:"elapsed_ms"`
		Reused    bool            `json:"engine_reused"`
		Stats     server.RunStats `json:"stats"`
	}
	if o.err = json.Unmarshal(data, &resp); o.err != nil {
		return o
	}
	o.elapsedMS, o.reused = resp.ElapsedMS, resp.Reused
	if o.err = s.check[kind](resp.Result); o.err == nil && resp.Stats.BlocksAllocated != resp.Stats.BlocksFreed {
		o.err = errLeak
	}
	return o
}

// openLoop sends sched on its due times from serveClients senders and
// returns one outcome per request. A request whose turn comes late (both
// senders busy) still has its latency counted from when it was due.
func (s *serveInstance) openLoop(sched []request, tr *tracer) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	firstOp := s.nextOp
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				o := s.send(sched[i].kind)
				recv := sent.Add(o.roundtrip)
				o.late, o.latency = sent.Sub(due), recv.Sub(due)
				out[i] = o
				if tr != nil {
					op := firstOp + i
					root := tr.add(-1, op, "op", due, time.Now())
					tr.add(root, op, "loadgen_wait", due, sent)
					rt := tr.add(root, op, "http_roundtrip", sent, recv)
					if o.elapsedMS > 0 {
						// The server reports how long the run took, not when:
						// centre it in the round trip.
						run := time.Duration(o.elapsedMS * float64(time.Millisecond))
						at := sent.Add((o.roundtrip - run) / 2)
						tr.add(rt, op, "server_run", at, at.Add(run))
					}
					tr.add(root, op, "check", recv, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	s.nextOp += len(sched)
	return out
}

// segmentAt measures one open-loop segment at rate requests per second. A
// timed budget is rounded to whole blocks of the mix at that rate.
func (s *serveInstance) segmentAt(rate float64, b budget, tr *tracer) segment {
	n := b.Ops
	if n == 0 {
		// Whole blocks of the mix, so every segment carries the same work.
		n = max(1, int(math.Round(rate*b.Dur.Seconds()/mixBlock))) * mixBlock
	}
	sched := makeSchedule(s.rng, n, time.Duration(float64(n)/rate*float64(time.Second)))
	return measure(func(seg *segment) {
		s.last = s.openLoop(sched, tr)
		for _, o := range s.last {
			seg.record(o.latency, o.err, serveLimit)
			seg.lateMS = append(seg.lateMS, ms(o.late))
		}
	})
}

func (s *serveInstance) segment(b budget, tr *tracer) segment {
	return s.segmentAt(serveRate, b, tr)
}

// serverLayer reports the server layer from the requests of the segment that
// has just run on s, then runs the closed-loop probes of the server and of
// the deadline machinery its engines run under.
func (s *serveInstance) serverLayer(out map[string]float64, p plan) error {
	var hop, regMS, lateMS []float64
	runMS := make(map[reqKind][]float64)
	var reused, runs, shed int
	for _, o := range s.last {
		if o.status == http.StatusTooManyRequests {
			shed++
		}
		lateMS = append(lateMS, ms(o.late))
		if o.err != nil {
			continue
		}
		if o.kind == kindRegister {
			regMS = append(regMS, ms(o.roundtrip))
			continue
		}
		runs++
		if o.reused {
			reused++
		}
		hop = append(hop, ms(o.roundtrip)-o.elapsedMS)
		runMS[o.kind] = append(runMS[o.kind], o.elapsedMS)
	}
	out["server.hop_ms_p50"] = percentile(hop, 0.50)
	out["server.hop_ms_p95"] = percentile(hop, 0.95)
	for k := kindQueens4; k < kindRegister; k++ {
		out["server.run_ms_p50."+kindName[k]] = percentile(runMS[k], 0.50)
	}
	out["server.engine_reused_share"] = ratio(float64(reused), float64(runs))
	out["server.shed_share"] = ratio(float64(shed), float64(len(s.last)))
	out["loadgen.late_ms_p95"] = percentile(lateMS, 0.95)

	// The same program straight through Server.Execute and through HTTP:
	// the difference is what the HTTP layer costs.
	var execMS, httpMS []float64
	for i := 0; i < p.probeN; i++ {
		t0 := time.Now()
		if _, apiErr := s.srv.Execute(context.Background(), "queens4", server.RunRequest{}); apiErr != nil {
			return fmt.Errorf("execute probe: %w", apiErr)
		}
		execMS = append(execMS, ms(time.Since(t0)))
		o := s.send(kindQueens4)
		if o.err != nil {
			return fmt.Errorf("http probe: %w", o.err)
		}
		httpMS = append(httpMS, ms(o.roundtrip))
	}
	out["server.execute_ms_p50"] = percentile(execMS, 0.50)
	out["server.http_ms_p50"] = percentile(httpMS, 0.50)
	for i := 0; i < max(p.probeN/4, 3); i++ {
		o := s.send(kindRegister)
		if o.err != nil {
			return fmt.Errorf("register probe: %w", o.err)
		}
		regMS = append(regMS, ms(o.roundtrip))
	}
	out["server.register_ms_p50"] = percentile(regMS, 0.50)

	for _, name := range []string{"queens6", "jacobi16"} {
		r, err := deadlineRatio(name, p.probeN/2)
		if err != nil {
			return err
		}
		out["runtime.deadline_ratio."+name] = r
	}
	return nil
}

// probeServerLayer gives a closed-loop workload's traced run the server
// layer as well, so that every traced run carries the whole ledger: a server
// set up as serve_open does, half a segment of its traffic, and its probes.
// Only the rate ladder stays with serve_open.
func probeServerLayer(out map[string]float64, seed int64, p plan) error {
	p.warmup /= 2
	s, err := newServe(seed, p)
	if err != nil {
		return err
	}
	s.segment(budget{Ops: p.seg.Ops, Dur: p.seg.Dur / 2}, nil)
	err = s.serverLayer(out, p)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// layers reports the server layer from the traced segment, the rate ladder,
// the compile layer on what a registration compiles, and the runtime layer on
// the catalog's queens6 under the catalog's engine configuration.
func (s *serveInstance) layers(out map[string]float64, _ int64, p plan) error {
	if err := s.serverLayer(out, p); err != nil {
		return err
	}
	// Rate ladder: the highest rate whose p95 meets the limit with no
	// failures and no backlog — the generator's lateness over the last
	// quarter of the step stays within the limit too.
	out["server.max_ok_rate"] = 0
	for _, rate := range p.ladder {
		seg := s.segmentAt(rate, p.seg, nil)
		tail := seg.lateMS[len(seg.lateMS)*3/4:]
		if seg.failed == 0 && percentile(seg.latMS, 0.95) <= ms(serveLimit) && percentile(tail, 0.95) <= ms(serveLimit) {
			out["server.max_ok_rate"] = rate
		}
	}
	spec, err := server.Catalog("queens6", workers, 0)
	if err != nil {
		return err
	}
	sumloop := target{file: "sumloop.dlr", srcs: []string{s.sumloop},
		opts: compile.Options{Registry: operator.Builtins(), Fuse: true, MemPlan: true, Affinity: true}}
	if err := probeCompile(out, sumloop, p.probeN); err != nil {
		return err
	}
	want := queens.CountReference(6)
	return probeRuntime(out, target{prog: spec.Prog, cfg: spec.Base,
		check: func(v value.Value) error { return checkQueens(v, 6, want) }}, p.probeN)
}

// deadlineRatio is the warm run of a catalog program under the server's
// engine configuration (RunContext with a deadline, OpTimeout, affinity
// hints) over the warm run under a bare two-worker configuration.
func deadlineRatio(name string, n int) (float64, error) {
	spec, err := server.Catalog(name, workers, 0)
	if err != nil {
		return 0, err
	}
	served := runtime.New(spec.Prog, spec.Base)
	bare := runtime.New(spec.Prog, runtime.Config{Workers: workers})
	var servedMS, bareMS []float64
	once := func(eng *runtime.Engine, run func() (value.Value, error)) (float64, error) {
		t0 := time.Now()
		v, err := run()
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("deadline probe %s: %w", name, err)
		}
		value.Release(v, &eng.Stats().Blocks)
		return ms(d), eng.Reset()
	}
	const unmeasured = 5
	for i := 0; i < unmeasured+n; i++ {
		a, err := once(served, func() (value.Value, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return served.RunContext(ctx)
		})
		if err != nil {
			return 0, err
		}
		b, err := once(bare, func() (value.Value, error) { return bare.Run() })
		if err != nil {
			return 0, err
		}
		if i >= unmeasured {
			servedMS, bareMS = append(servedMS, a), append(bareMS, b)
		}
	}
	return ratio(median(servedMS), median(bareMS)), nil
}
