package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/value"
)

// This file is the server side of the adaptive optimization loop: POST
// /programs/{name}/tune runs one calibrate→re-fuse→measure cycle against a
// live program and, when the re-fused plan measures faster, swaps the
// program graph and its engine pool under traffic. In-flight runs are
// untouched — every run captures its pool pointer at checkout (see execute),
// so engines always return to the pool they came from and drained old-pool
// engines are simply dropped.

// TuneRequest is the body of POST /programs/{name}/tune.
type TuneRequest struct {
	// Args are main's arguments for the calibration and measurement runs
	// (same encoding as RunRequest.Args).
	Args []json.RawMessage `json:"args,omitempty"`
	// TimeoutMS bounds the whole tune (calibration + both measurements),
	// clamped to the server's MaxTimeout. Zero selects the default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TuneResponse reports one finished tune.
type TuneResponse struct {
	Program string `json:"program"`
	// Winner is "tuned" or "baseline"; Swapped is true when the tuned plan
	// won and now serves traffic.
	Winner  string `json:"winner"`
	Swapped bool   `json:"swapped"`
	// BaselineCost and TunedCost are each plan's best measured run in Unit
	// ("ns" for real-time engines, "ticks" for simulated ones).
	BaselineCost int64   `json:"baseline_cost"`
	TunedCost    int64   `json:"tuned_cost"`
	Unit         string  `json:"unit"`
	GainPct      float64 `json:"gain_pct"`
	// Operators is how many operators the calibration run timed.
	Operators  int      `json:"operators_calibrated"`
	Advisories []string `json:"advisories,omitempty"`
	ElapsedMS  float64  `json:"elapsed_ms"`
}

// TuneProgram runs the adaptive loop on a registered program. It holds one
// admission slot for the duration (a tune competes with normal runs, it does
// not starve them) and serializes per program: a second concurrent tune of
// the same program is rejected with 409 rather than queued, since it would
// only re-measure the plan the first one is about to install.
func (s *Server) TuneProgram(ctx context.Context, name string, req TuneRequest) (resp *TuneResponse, apiErr *APIError) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, apiErr := s.lookup(name)
	if apiErr != nil {
		return nil, apiErr
	}
	if p.spec.Recompile == nil {
		return nil, &APIError{Status: http.StatusUnprocessableEntity, Code: "not_tunable",
			Message: fmt.Sprintf("program %q has no recompile hook", name)}
	}
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
	if !p.tuneMu.TryLock() {
		return nil, &APIError{Status: http.StatusConflict, Code: "tune_in_progress",
			Message: fmt.Sprintf("program %q is already being tuned", name)}
	}
	defer p.tuneMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			resp, apiErr = nil, &APIError{Status: http.StatusInternalServerError, Code: "internal",
				Message: fmt.Sprintf("tune panicked: %v\n%s", r, debug.Stack())}
		}
	}()

	runCtx, cancel := context.WithTimeout(s.runCtx, s.clampTimeout(req.TimeoutMS))
	defer cancel()
	stop := context.AfterFunc(ctx, cancel)
	defer stop()
	start := time.Now()

	// Calibrate on the currently-served graph with timing + tracing on and
	// chaos disarmed: fault retries must not pollute the measured costs.
	prog := p.prog.Load()
	calCfg := p.spec.Base
	calCfg.Timing = true
	calCfg.Trace = true
	calCfg.Faults = nil
	eng := runtime.New(prog, calCfg)
	v, err := eng.RunContext(runCtx, args...)
	if err != nil {
		return nil, classifyRunError(err, runCtx)
	}
	value.Release(v, &eng.Stats().Blocks)
	profile := eng.ProfileWeights()
	if len(profile) == 0 {
		return nil, &APIError{Status: http.StatusUnprocessableEntity, Code: "not_tunable",
			Message: "calibration recorded no operator timings"}
	}
	workers := p.spec.Base.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	var advisories []runtime.Advisory
	if tr := eng.Trace(); tr != nil {
		advisories = tr.CriticalPath().Advise(workers)
	}

	// Re-fuse with the measured weights and measure both plans fresh.
	tunedProg, err := p.spec.Recompile(profile)
	if err != nil {
		return nil, &APIError{Status: http.StatusInternalServerError, Code: "internal",
			Message: fmt.Sprintf("recompile: %v", err)}
	}
	baseCost, apiErr := s.measurePlan(runCtx, p, prog, args)
	if apiErr != nil {
		return nil, apiErr
	}
	tunedCost, apiErr := s.measurePlan(runCtx, p, tunedProg, args)
	if apiErr != nil {
		return nil, apiErr
	}

	resp = &TuneResponse{
		Program:      name,
		Winner:       "tuned",
		BaselineCost: baseCost,
		TunedCost:    tunedCost,
		Unit:         "ns",
		Operators:    len(profile),
		ElapsedMS:    float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	if p.spec.Base.Mode == runtime.Simulated {
		resp.Unit = "ticks"
	}
	if baseCost > 0 {
		resp.GainPct = float64(baseCost-tunedCost) / float64(baseCost) * 100
	}
	imbalanced := false
	for _, a := range advisories {
		resp.Advisories = append(resp.Advisories, a.String())
		if a.Verdict == runtime.AdviseSplit {
			imbalanced = true
		}
	}
	if baseCost < tunedCost {
		resp.Winner = "baseline"
	} else {
		// Swap under traffic: store the graph first, the pool last, so a
		// reader that sees the new pool always sees the new graph too.
		// In-flight runs keep their captured old-pool pointer and settle
		// against it; the old pool's idle engines are garbage from here.
		p.prog.Store(tunedProg)
		p.pool.Store(s.buildPool(p.spec, tunedProg))
		resp.Swapped = true
		p.tuneSwaps.Add(1)
	}

	p.tunes.Add(1)
	p.tuneAdvisories.Add(int64(len(advisories)))
	if imbalanced {
		p.lastImbalanced.Store(1)
	} else {
		p.lastImbalanced.Store(0)
	}
	p.lastGainPct.Store(int64(resp.GainPct * 100))
	return resp, nil
}

// measurePlan times two runs of one plan through a reused throwaway engine
// (chaos disarmed, like calibration) and returns the best cost.
func (s *Server) measurePlan(ctx context.Context, p *program, prog *graph.Program, args []value.Value) (int64, *APIError) {
	cfg := p.spec.Base
	cfg.Faults = nil
	eng := runtime.New(prog, cfg)
	best := int64(0)
	runs := 2
	if cfg.Mode == runtime.Simulated {
		runs = 1 // virtual clock: every run measures identically
	}
	for i := 0; i < runs; i++ {
		if i > 0 {
			if err := eng.Reset(); err != nil {
				return 0, &APIError{Status: http.StatusInternalServerError, Code: "internal",
					Message: fmt.Sprintf("measure reset: %v", err)}
			}
		}
		v, err := eng.RunContext(ctx, args...)
		if err != nil {
			return 0, classifyRunError(err, ctx)
		}
		value.Release(v, &eng.Stats().Blocks)
		cost := eng.Stats().RealNanos
		if cfg.Mode == runtime.Simulated {
			cost = eng.Stats().MakespanTicks
		}
		if best == 0 || cost < best {
			best = cost
		}
	}
	return best, nil
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errDraining())
		return
	}
	name := r.PathValue("name")
	var req TuneRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, &APIError{Status: http.StatusBadRequest, Code: "bad_request",
				Message: fmt.Sprintf("body: %v", err)})
			return
		}
	}
	resp, apiErr := s.TuneProgram(r.Context(), name, req)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
