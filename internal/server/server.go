package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/value"
)

// Config sizes the server's admission, budgets, and drain behavior. Zero
// fields select the defaults noted on each.
type Config struct {
	// MaxConcurrent bounds runs executing simultaneously (default 4).
	MaxConcurrent int
	// QueueDepth bounds runs waiting for a slot beyond the in-flight set;
	// arrivals past it are shed with 429 + Retry-After (default 8).
	QueueDepth int
	// DefaultTimeout is the per-run deadline when the request names none
	// (default 10s); MaxTimeout clamps requested deadlines (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultMaxOps is the per-run operator budget when the request names
	// none (default 100M); MaxOpsCap clamps requested budgets (default 1G).
	DefaultMaxOps int64
	MaxOpsCap     int64
	// DrainTimeout bounds graceful shutdown: past it, in-flight runs are
	// canceled at their next operator boundary (default 5s).
	DrainTimeout time.Duration
	// Workers is the per-engine worker count for programs registered via
	// RegisterSource (default 2); catalog Specs carry their own.
	Workers int
	// PoolIdle bounds warmed idle engines retained per program (default
	// MaxConcurrent).
	PoolIdle int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.DefaultMaxOps <= 0 {
		c.DefaultMaxOps = 100_000_000
	}
	if c.MaxOpsCap <= 0 {
		c.MaxOpsCap = 1_000_000_000
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.PoolIdle <= 0 {
		c.PoolIdle = c.MaxConcurrent
	}
	return c
}

// Spec registers one program: the compiled graph (compile once — it is
// immutable and shared by every engine), the base engine configuration,
// and optional typed decode/render hooks and a per-engine fault-plan
// factory for chaos testing.
type Spec struct {
	Name string
	Prog *graph.Program
	// Base is the engine configuration template. Its MaxOps is overridden
	// per run by the request budget; its Faults must be nil — use the
	// factory below so each pooled engine gets a private stateful plan.
	Base runtime.Config
	// Faults, when non-nil, constructs a fresh fault plan per engine
	// (plans keep execution cursors and must never be shared).
	Faults func() *runtime.FaultPlan
	// Decode converts request args to runtime values; nil = generic.
	Decode func(args []json.RawMessage) ([]value.Value, error)
	// Render converts a result value to a JSON-marshalable payload. It
	// must not retain v (the server releases it after rendering); nil =
	// generic encoding.
	Render func(v value.Value) (any, error)
}

// program is one registered entry: the spec, the engine pool serving
// spec.Prog (built once at registration), and its aggregated counters (all
// atomics; read by /metrics while runs mutate).
type program struct {
	spec Spec
	pool *runtime.EnginePool

	runs     atomic.Int64 // completed successfully
	failures [6]atomic.Int64
	agg      statsAgg
	leakRuns atomic.Int64
}

// statsAgg accumulates runtime.Stats across runs for /metrics.
type statsAgg struct {
	ops, operators, retries, opTimeouts, faultsInjected int64
	steals, parks                                       int64
	elidedRetains, elidedReleases                       int64
	pooledAllocs, copiesAvoided, fusedNodes             int64
	snapshotCopies                                      int64
	blocksAllocated, blocksCopied, blocksFreed          int64
}

func (a *statsAgg) merge(st *runtime.Stats) {
	atomic.AddInt64(&a.ops, st.OpsExecuted)
	atomic.AddInt64(&a.operators, st.OperatorsRun)
	atomic.AddInt64(&a.retries, st.Retries)
	atomic.AddInt64(&a.opTimeouts, st.OpTimeouts)
	atomic.AddInt64(&a.faultsInjected, st.FaultsInjected)
	atomic.AddInt64(&a.steals, st.Steals)
	atomic.AddInt64(&a.parks, st.Parks)
	atomic.AddInt64(&a.elidedRetains, st.ElidedRetains)
	atomic.AddInt64(&a.elidedReleases, st.ElidedReleases)
	atomic.AddInt64(&a.pooledAllocs, st.PooledAllocs)
	atomic.AddInt64(&a.copiesAvoided, st.CopiesAvoided)
	atomic.AddInt64(&a.fusedNodes, st.FusedNodes)
	atomic.AddInt64(&a.snapshotCopies, st.SnapshotCopies)
	atomic.AddInt64(&a.blocksAllocated, st.Blocks.Allocated)
	atomic.AddInt64(&a.blocksCopied, st.Blocks.Copies)
	atomic.AddInt64(&a.blocksFreed, st.Blocks.Freed)
}

// Server is the coordination service: a program registry, bounded
// admission over a shared slot semaphore, and the drained shutdown path.
type Server struct {
	cfg Config

	mu       sync.RWMutex
	programs map[string]*program

	// slots is the admission semaphore: holding a token = running. Drain
	// acquires every token, so a full acquire proves quiescence.
	slots  chan struct{}
	queued atomic.Int64

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	// runCtx parents every run's context; cancelRuns fires when the drain
	// deadline passes, stopping stragglers at their next operator boundary.
	runCtx     context.Context
	cancelRuns context.CancelFunc

	inflight  atomic.Int64
	shed      atomic.Int64
	panics    atomic.Int64
	startTime time.Time
}

// New constructs a server; register programs, then serve s.Handler().
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		programs:   make(map[string]*program),
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		drainCh:    make(chan struct{}),
		runCtx:     ctx,
		cancelRuns: cancel,
		startTime:  time.Now(),
	}
}

// Register adds a compiled program under spec.Name. Duplicate names are
// rejected — re-registering would strand the old pool's engines.
func (s *Server) Register(spec Spec) error {
	if spec.Name == "" || spec.Prog == nil {
		return fmt.Errorf("server: spec needs a name and a compiled program")
	}
	if spec.Base.Faults != nil {
		return fmt.Errorf("server: set Spec.Faults (per-engine factory), not Base.Faults — fault plans are stateful and must not be shared across pooled engines")
	}
	p := &program{spec: spec, pool: runtime.NewEnginePool(s.cfg.PoolIdle, func() *runtime.Engine {
		cfg := spec.Base
		if spec.Faults != nil {
			cfg.Faults = spec.Faults()
		}
		return runtime.New(spec.Prog, cfg)
	})}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.programs[spec.Name]; dup {
		return &APIError{Status: http.StatusConflict, Code: "duplicate_program",
			Message: fmt.Sprintf("program %q is already registered", spec.Name)}
	}
	s.programs[spec.Name] = p
	return nil
}

// Programs returns the registered program names, sorted.
func (s *Server) Programs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.programs))
	for n := range s.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Server) lookup(name string) (*program, *APIError) {
	s.mu.RLock()
	p := s.programs[name]
	s.mu.RUnlock()
	if p == nil {
		return nil, &APIError{Status: http.StatusNotFound, Code: "unknown_program",
			Message: fmt.Sprintf("program %q is not registered", name)}
	}
	return p, nil
}

// retryAfter estimates how long a shed client should back off: the deeper
// the queue, the longer the hint, clamped to [50ms, 2s].
func (s *Server) retryAfter() time.Duration {
	d := time.Duration(s.queued.Load()+1) * 100 * time.Millisecond
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func errDraining() *APIError {
	return &APIError{Status: http.StatusServiceUnavailable, Code: "draining",
		Message: "server is draining; no new runs admitted", RetryAfterMS: 1000}
}

// admit acquires a run slot, queueing up to QueueDepth waiters and
// shedding beyond that. Returns a release func on success.
func (s *Server) admit(ctx context.Context) (func(), *APIError) {
	if s.draining.Load() {
		return nil, errDraining()
	}
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		// Fast path — but the drain may have started between the check
		// above and the acquire; a drained server must admit nothing.
		if s.draining.Load() {
			release()
			return nil, errDraining()
		}
		return release, nil
	default:
	}
	// All slots busy: join the bounded queue or shed.
	if q := s.queued.Add(1); q > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.shed.Add(1)
		ra := s.retryAfter()
		return nil, &APIError{Status: http.StatusTooManyRequests, Code: "overloaded",
			Message: fmt.Sprintf("admission queue full (%d in flight, %d queued)",
				s.cfg.MaxConcurrent, s.cfg.QueueDepth),
			RetryAfterMS: ra.Milliseconds()}
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		if s.draining.Load() {
			release()
			return nil, errDraining()
		}
		return release, nil
	case <-ctx.Done():
		return nil, &APIError{Status: http.StatusRequestTimeout, Code: "client_gone",
			Message: "client canceled while queued for admission"}
	case <-s.drainCh:
		return nil, errDraining()
	}
}

// clampTimeout resolves the per-run deadline from the request.
func (s *Server) clampTimeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// clampMaxOps resolves the per-run operator budget from the request.
func (s *Server) clampMaxOps(n int64) int64 {
	b := s.cfg.DefaultMaxOps
	if n > 0 {
		b = n
	}
	if b > s.cfg.MaxOpsCap {
		b = s.cfg.MaxOpsCap
	}
	return b
}

// Execute runs one request through the full hardened lifecycle: admission,
// engine checkout, budget + deadline, structured failure classification,
// render, release, leak assertion, engine return. ctx is the client's
// context (its death cancels a queued or running request); it may be nil.
func (s *Server) Execute(ctx context.Context, name string, req RunRequest) (*RunResponse, *APIError) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, apiErr := s.lookup(name)
	if apiErr != nil {
		return nil, apiErr
	}
	// Decode before admission: a malformed request must not consume a slot.
	decode := p.spec.Decode
	if decode == nil {
		decode = decodeArgs
	}
	args, err := decode(req.Args)
	if err != nil {
		return nil, &APIError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: fmt.Sprintf("arguments: %v", err)}
	}
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	return s.execute(ctx, p, req, args)
}

// execute is the post-admission body, panic-isolated: any bug below —
// render, accounting, the engine itself — converts to a 500 instead of
// taking down the daemon.
func (s *Server) execute(ctx context.Context, p *program, req RunRequest, args []value.Value) (resp *RunResponse, apiErr *APIError) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			resp, apiErr = nil, &APIError{Status: http.StatusInternalServerError, Code: "internal",
				Message: fmt.Sprintf("run panicked outside the engine: %v\n%s", r, debug.Stack())}
		}
	}()

	eng := p.pool.Get()
	reusedEngine := eng.Runs() > 0
	if err := eng.SetMaxOps(s.clampMaxOps(req.MaxOps)); err != nil {
		// A pooled engine is never running; treat this as the bug it is.
		p.pool.Put(eng)
		return nil, &APIError{Status: http.StatusInternalServerError, Code: "internal",
			Message: fmt.Sprintf("budget: %v", err)}
	}

	// The run context merges three cancellation sources: the server-wide
	// drain straggler cancel (runCtx parent), the per-run deadline, and
	// the client connection going away.
	runCtx, cancel := context.WithTimeout(s.runCtx, s.clampTimeout(req.TimeoutMS))
	defer cancel()
	stop := context.AfterFunc(ctx, cancel)
	defer stop()

	start := time.Now()
	v, err := eng.RunContext(runCtx, args...)
	elapsed := time.Since(start)

	if err != nil {
		apiErr := classifyRunError(err, runCtx)
		var re *runtime.RunError
		if errors.As(err, &re) {
			p.recordFailure(int(re.Kind))
		} else {
			p.recordFailure(0)
		}
		s.finishRun(p, eng)
		return nil, apiErr
	}

	render := p.spec.Render
	rendered, rerr := func() (any, error) {
		if render == nil {
			return encodeValue(v), nil
		}
		return render(v)
	}()
	// Release the result before any leak accounting: rendering must copy
	// what it keeps. This is also why rendering happens before the engine
	// returns to the pool — Reset would zero the counters Freed lands on.
	value.Release(v, &eng.Stats().Blocks)
	if rerr != nil {
		s.finishRun(p, eng)
		return nil, &APIError{Status: http.StatusInternalServerError, Code: "internal",
			Message: fmt.Sprintf("render: %v", rerr)}
	}

	st := eng.Stats()
	resp = &RunResponse{
		Program:   p.spec.Name,
		Result:    rendered,
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6,
		Reused:    reusedEngine,
		Stats: RunStats{
			Ops:             st.OpsExecuted,
			Operators:       st.OperatorsRun,
			Retries:         st.Retries,
			FaultsInjected:  st.FaultsInjected,
			Steals:          st.Steals,
			PooledAllocs:    st.PooledAllocs,
			BlocksAllocated: st.Blocks.Allocated,
			BlocksFreed:     st.Blocks.Freed,
		},
	}
	p.runs.Add(1)
	s.finishRun(p, eng)
	return resp, nil
}

// finishRun settles one run's accounting: merge the engine's counters into
// the program aggregate, assert the leak invariant, and return the engine
// to the program's pool — unless it leaked, in which case it is quarantined
// (dropped) so a corrupted engine can never serve another request.
func (s *Server) finishRun(p *program, eng *runtime.Engine) {
	st := eng.Stats()
	p.agg.merge(st)
	if st.Blocks.Allocated != st.Blocks.Freed {
		p.leakRuns.Add(1)
		return // quarantine: do not repool
	}
	p.pool.Put(eng)
}

// classifyRunError maps a runtime failure to the API error surface.
func classifyRunError(err error, runCtx context.Context) *APIError {
	var re *runtime.RunError
	if !errors.As(err, &re) {
		return &APIError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
	ae := &APIError{
		Code:     "run_failed",
		Message:  re.Error(),
		Kind:     re.Kind.String(),
		Op:       re.Op,
		Template: re.Template,
		Path:     re.Path,
		Attempts: re.Attempts,
	}
	switch re.Kind {
	case runtime.FailTimeout:
		ae.Status = http.StatusGatewayTimeout
		ae.Code = "deadline"
	case runtime.FailCanceled:
		// Distinguish the per-run deadline (504) from the client or the
		// drain killing the run (499-ish; 503 during drain).
		if runCtx.Err() == context.DeadlineExceeded {
			ae.Status = http.StatusGatewayTimeout
			ae.Code = "deadline"
		} else {
			ae.Status = http.StatusServiceUnavailable
			ae.Code = "canceled"
		}
	default: // error, panic, deadlock, budget
		ae.Status = http.StatusUnprocessableEntity
	}
	return ae
}

// LeakRuns returns the total number of runs that violated the
// Allocated == Freed invariant across all programs — the figure the
// daemon's exit code reports.
func (s *Server) LeakRuns() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, p := range s.programs {
		n += p.leakRuns.Load()
	}
	return n
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully drains the server: admission stops immediately
// (queued waiters are released with 503), in-flight runs get DrainTimeout
// to finish, and stragglers past it are canceled at their next operator
// boundary. It returns once every run slot is reclaimed — i.e. proven
// quiescence — or ctx dies first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	timerC := timer.C
	// Acquiring every slot proves no run is in flight. The tokens are held
	// forever after: a drained server never runs again.
	for held := 0; held < cap(s.slots); {
		select {
		case s.slots <- struct{}{}:
			held++
		case <-timerC:
			// Drain deadline: cancel stragglers and keep collecting.
			s.cancelRuns()
			timerC = nil
		case <-ctx.Done():
			s.cancelRuns()
			return fmt.Errorf("server: shutdown context died with %d runs still in flight", cap(s.slots)-held)
		}
	}
	s.cancelRuns() // release the context even on a clean drain
	return nil
}
