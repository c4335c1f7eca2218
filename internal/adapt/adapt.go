// Package adapt closes the profile-guided optimization loop: it compiles a
// program, runs a short calibration pass with timing and tracing on,
// extracts measured mean operator costs (per fused member, via the nested
// per-member timing entries — not just supernode heads), feeds them into
// fusion's bottom-level priorities, re-fuses, re-runs on a fresh engine, and
// keeps whichever plan measures faster. Fusion's weights are the only thing
// it tunes: block recycling belongs to the runtime, with one fixed pool per
// worker. The same loop a delprof user used to drive by hand (-profout,
// edit, -profile) runs unattended, and a granularity advisor on the
// critical-path analysis reports which operators a coordination-level
// rebalance should attack.
//
// The loop is calibrate-once-keep-winner, not continuous online retuning:
// profile weights only reorder ready queues (cluster membership is
// weight-independent), so a second calibration pass over the tuned plan
// measures the same per-operator costs and re-derives the same plan — the
// loop converges after one iteration by construction, and re-running it
// buys nothing but measurement noise.
package adapt

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/compile"
	"repro/internal/runtime"
	"repro/internal/value"
)

// Config controls one adaptive tuning run.
type Config struct {
	// Compile is the base compilation; Fuse is forced on (the loop feeds
	// fusion), MemPlan is honored as given. Any FuseProfile already present
	// seeds the baseline and is replaced by the measured profile in the
	// tuned build.
	Compile compile.Options
	// Runtime is the base execution config. Calibration runs it with Timing
	// and Trace forced on and Faults disarmed (fault noise must not leak
	// into measured costs); measurement runs it as given.
	Runtime runtime.Config
	// Args are main's arguments for every run.
	Args []value.Value
	// CalibrateRuns is the number of calibration executions averaged into
	// the profile (default 1; Simulated mode never needs more).
	CalibrateRuns int
	// MeasureRuns is the number of timed executions per plan, folded by
	// minimum (default 3; Simulated mode uses 1, the clock is virtual).
	MeasureRuns int
}

// Result is a finished tuning run.
type Result struct {
	// Profile is the measured mean cost per operator (ticks or ns).
	Profile map[string]int64
	// Advisories are the granularity advisor's verdicts from the
	// calibration run's critical path.
	Advisories []runtime.Advisory
	// UnmatchedProfileKeys lists measured operators the re-fused plan could
	// not place (normally empty: the profile was measured on this program).
	UnmatchedProfileKeys []string
	// BaselineCost and TunedCost are each plan's best measured run (Unit is
	// "ticks" for Simulated mode, "ns" for Real).
	BaselineCost int64
	TunedCost    int64
	Unit         string
	// Winner is "tuned" or "baseline".
	Winner string
	// Baseline and Tuned are the two compilations; Winning points at the
	// one that won.
	Baseline *compile.Result
	Tuned    *compile.Result
	// Workers is the calibrated worker count, for rendering.
	Workers int
}

// Winning returns the winning compilation.
func (r *Result) Winning() *compile.Result {
	if r.Winner == "baseline" {
		return r.Baseline
	}
	return r.Tuned
}

// Gain is the fractional improvement of the tuned plan over the baseline
// (positive = tuned faster).
func (r *Result) Gain() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return float64(r.BaselineCost-r.TunedCost) / float64(r.BaselineCost)
}

// Report renders the tuning run for terminal output.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive: calibrated %d operator(s) at %d worker(s)\n", len(r.Profile), r.Workers)
	fmt.Fprintf(&b, "adaptive: baseline %d %s, tuned %d %s — keeping %s plan (%+.1f%%)\n",
		r.BaselineCost, r.Unit, r.TunedCost, r.Unit, r.Winner, r.Gain()*100)
	if len(r.UnmatchedProfileKeys) > 0 {
		fmt.Fprintf(&b, "adaptive: warning — measured keys unmatched on recompile: %s\n",
			strings.Join(r.UnmatchedProfileKeys, ", "))
	}
	b.WriteString(runtime.RenderAdvisories(r.Advisories))
	return b.String()
}

func (c Config) calibrateRuns() int {
	if c.CalibrateRuns > 0 {
		return c.CalibrateRuns
	}
	return 1
}

func (c Config) measureRuns() int {
	if c.Runtime.Mode == runtime.Simulated {
		return 1 // virtual clock: every run measures identically
	}
	if c.MeasureRuns > 0 {
		return c.MeasureRuns
	}
	return 3
}

func (c Config) workers() int {
	if c.Runtime.Workers > 0 {
		return c.Runtime.Workers
	}
	if c.Runtime.Machine != nil {
		return c.Runtime.Machine.Procs
	}
	return 1
}

// Tune runs the full adaptive loop on one source file: compile with unit (or
// caller-supplied) weights, calibrate, re-fuse with measured weights,
// measure both plans on fresh engines, keep the winner. ctx bounds every
// execution (nil = background).
func Tune(ctx context.Context, file, src string, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts := cfg.Compile
	opts.Fuse = true
	baseline, err := compile.Compile(file, src, opts)
	if err != nil {
		return nil, fmt.Errorf("adapt: baseline compile: %w", err)
	}

	res := &Result{Unit: "ns", Workers: cfg.workers()}
	if cfg.Runtime.Mode == runtime.Simulated {
		res.Unit = "ticks"
	}

	// Calibrate: timing + tracing on, faults off. The engine is reused
	// across calibration runs so the profile averages over warmed state.
	calCfg := cfg.Runtime
	calCfg.Timing = true
	calCfg.Trace = true
	calCfg.Faults = nil
	eng := runtime.New(baseline.Program, calCfg)
	merged := make(map[string]int64)
	runs := cfg.calibrateRuns()
	for i := 0; i < runs; i++ {
		if i > 0 {
			if err := eng.Reset(); err != nil {
				return nil, fmt.Errorf("adapt: calibration reset: %w", err)
			}
		}
		if _, err := eng.RunContext(ctx, cfg.Args...); err != nil {
			return nil, fmt.Errorf("adapt: calibration run: %w", err)
		}
		for name, w := range eng.ProfileWeights() {
			merged[name] += w
		}
	}
	if len(merged) == 0 {
		return nil, fmt.Errorf("adapt: calibration recorded no operator timings")
	}
	for name := range merged {
		if merged[name] /= int64(runs); merged[name] < 1 {
			merged[name] = 1
		}
	}
	res.Profile = merged
	if tr := eng.Trace(); tr != nil {
		res.Advisories = tr.CriticalPath().Advise(res.Workers)
	}

	// Re-fuse with the measured weights.
	topts := opts
	topts.FuseProfile = merged
	tuned, err := compile.Compile(file, src, topts)
	if err != nil {
		return nil, fmt.Errorf("adapt: tuned recompile: %w", err)
	}
	if tuned.FusePlan != nil {
		res.UnmatchedProfileKeys = tuned.FusePlan.UnmatchedProfileKeys
	}
	res.Baseline, res.Tuned = baseline, tuned

	// Measure both plans on fresh engines (Reset-reused within a plan so
	// warmed pools amortize equally), folded by minimum.
	baseCost, err := measure(ctx, baseline, cfg)
	if err != nil {
		return nil, fmt.Errorf("adapt: baseline measure: %w", err)
	}
	tunedCost, err := measure(ctx, tuned, cfg)
	if err != nil {
		return nil, fmt.Errorf("adapt: tuned measure: %w", err)
	}
	res.BaselineCost, res.TunedCost = baseCost, tunedCost
	res.Winner = "tuned"
	if baseCost < tunedCost {
		res.Winner = "baseline"
	}
	return res, nil
}

// measure times cfg.measureRuns() executions of one plan through a reused
// engine and returns the best run's cost (MakespanTicks in Simulated mode,
// RealNanos otherwise).
func measure(ctx context.Context, comp *compile.Result, cfg Config) (int64, error) {
	eng := runtime.New(comp.Program, cfg.Runtime)
	best := int64(0)
	for i := 0; i < cfg.measureRuns(); i++ {
		if i > 0 {
			if err := eng.Reset(); err != nil {
				return 0, err
			}
		}
		if _, err := eng.RunContext(ctx, cfg.Args...); err != nil {
			return 0, err
		}
		cost := eng.Stats().RealNanos
		if cfg.Runtime.Mode == runtime.Simulated {
			cost = eng.Stats().MakespanTicks
		}
		if best == 0 || cost < best {
			best = cost
		}
	}
	return best, nil
}

// CompileTuned is the one-call entry the server's live-source path uses:
// compile src with the given profile as fusion weights. It exists so
// callers holding only a source string need not re-assemble options.
func CompileTuned(file, src string, opts compile.Options, prof map[string]int64) (*compile.Result, error) {
	opts.Fuse = true
	opts.FuseProfile = prof
	return compile.Compile(file, src, opts)
}
