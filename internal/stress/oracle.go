package stress

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/compile"
	rt "repro/internal/runtime"
	"repro/internal/value"
)

// Reuse selects how a RunSpec exercises engine lifecycle.
type Reuse int

// Reuse modes.
const (
	// ReuseNone runs once on a fresh engine.
	ReuseNone Reuse = iota
	// ReuseReset runs three times on one engine with Reset between runs;
	// every repetition must reproduce the reference bit-exactly.
	ReuseReset
	// ReuseRunMany runs two invocations through RunMany on one engine and
	// checks each invocation's accounting.
	ReuseRunMany
)

// RunSpec is one runtime configuration of the oracle matrix. Every program
// compiles once, under the default options, and runs under every spec.
type RunSpec struct {
	Name    string
	Mode    rt.Mode
	Workers int
	Reuse   Reuse
	// FaultKind, when Faults is set, selects the injected failure flavor.
	Faults    bool
	FaultKind rt.FaultKind
}

// Specs returns the oracle matrix: Real vs Simulated, 1/2/8 workers, fresh
// vs Reset/RunMany-reused engines, and seeded faults+retry legs. The first
// spec is the reference execution.
func Specs() []RunSpec {
	return []RunSpec{
		{Name: "sim/w1", Mode: rt.Simulated, Workers: 1},
		{Name: "sim/w8", Mode: rt.Simulated, Workers: 8},
		{Name: "real/w1", Mode: rt.Real, Workers: 1},
		{Name: "real/w2", Mode: rt.Real, Workers: 2},
		{Name: "real/w8", Mode: rt.Real, Workers: 8},
		{Name: "sim/w2/reset", Mode: rt.Simulated, Workers: 2, Reuse: ReuseReset},
		{Name: "real/w4/runmany", Mode: rt.Real, Workers: 4, Reuse: ReuseRunMany},
		{Name: "real/w2/faults", Mode: rt.Real, Workers: 2, Faults: true, FaultKind: rt.FaultError},
		{Name: "sim/w4/faults", Mode: rt.Simulated, Workers: 4, Faults: true, FaultKind: rt.FaultPanic},
	}
}

// maxOps guards every oracle run against runaway execution; generated
// programs are cost-bounded far below it.
const maxOps = 50_000_000

// Fingerprint renders a result value into a canonical comparison string.
// Blocks print their full payload, so two results fingerprint equal only
// when bit-identical.
func Fingerprint(v value.Value) string {
	var b strings.Builder
	fingerprint(&b, v)
	return b.String()
}

func fingerprint(b *strings.Builder, v value.Value) {
	switch x := v.(type) {
	case value.Tuple:
		b.WriteByte('<')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			fingerprint(b, e)
		}
		b.WriteByte('>')
	case *value.Block:
		fmt.Fprintf(b, "block%v", x.Data())
	case nil:
		b.WriteString("nil")
	default:
		b.WriteString(v.String())
	}
}

// Failure describes one oracle violation.
type Failure struct {
	Spec RunSpec
	// Kind is "mismatch", "error", or "invariant".
	Kind string
	Msg  string
}

func (f Failure) String() string {
	if f.Spec.Name == "" {
		return fmt.Sprintf("[compile] %s: %s", f.Kind, f.Msg)
	}
	return fmt.Sprintf("[%s] %s: %s", f.Spec.Name, f.Kind, f.Msg)
}

// Report is the outcome of one program's trip through the oracle matrix.
type Report struct {
	// Reference is the fingerprint of the baseline run (the first spec).
	Reference string
	// Runs counts individual executions compared (reuse legs count each
	// repetition).
	Runs int
	// FaultsInjected totals injected faults across all fault legs. A
	// single valid program may execute zero fault-target operators, so
	// "faults actually fired" is asserted per sweep, not per run.
	FaultsInjected int64
	// Failures lists every violation; empty means the program passed.
	Failures []Failure
}

// OK reports whether every run agreed and every invariant held.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// statsSnap captures the per-run counters the invariant checks need;
// Reset zeroes Engine.Stats, so reuse legs snapshot before resetting.
type statsSnap struct {
	allocated, freed        int64
	pooledAllocs            int64
	retries, faultsInjected int64
}

func snap(st *rt.Stats) statsSnap {
	return statsSnap{
		allocated:      st.Blocks.Allocated,
		freed:          st.Blocks.Freed,
		pooledAllocs:   st.PooledAllocs,
		retries:        st.Retries,
		faultsInjected: st.FaultsInjected,
	}
}

// checkInvariants validates one run's counters against the §8 accounting
// guarantees and the fault legs' coherence rules.
func checkInvariants(s RunSpec, st statsSnap) []string {
	var bad []string
	if st.allocated != st.freed {
		bad = append(bad, fmt.Sprintf("block leak: Allocated=%d Freed=%d", st.allocated, st.freed))
	}
	if st.pooledAllocs > st.allocated {
		bad = append(bad, fmt.Sprintf("PooledAllocs=%d exceeds Allocated=%d", st.pooledAllocs, st.allocated))
	}
	if s.Faults {
		if st.retries < st.faultsInjected {
			bad = append(bad, fmt.Sprintf("Retries=%d < FaultsInjected=%d", st.retries, st.faultsInjected))
		}
	} else if st.faultsInjected != 0 {
		bad = append(bad, fmt.Sprintf("FaultsInjected=%d on fault-free leg", st.faultsInjected))
	}
	return bad
}

func (s RunSpec) config() rt.Config {
	cfg := rt.Config{
		Workers: s.Workers,
		Mode:    s.Mode,
		MaxOps:  maxOps,
	}
	if s.Faults {
		cfg.Faults = rt.KillOnce(s.FaultKind, FaultOps()...)
		cfg.Retry = rt.RetryPolicy{MaxAttempts: 3}
	}
	return cfg
}

// runSpec executes the compiled program under one runtime spec and
// appends the runs' fingerprints and invariant findings to the report.
func runSpec(rep *Report, s RunSpec, res *compile.Result) {
	fail := func(kind, msg string) {
		rep.Failures = append(rep.Failures, Failure{Spec: s, Kind: kind, Msg: msg})
	}
	check := func(out value.Value, st statsSnap) {
		rep.Runs++
		rep.FaultsInjected += st.faultsInjected
		got := Fingerprint(out)
		if rep.Reference == "" {
			rep.Reference = got
		} else if got != rep.Reference {
			fail("mismatch", fmt.Sprintf("got %.80s… want %.80s…", got, rep.Reference))
		}
		for _, msg := range checkInvariants(s, st) {
			fail("invariant", msg)
		}
	}

	eng := rt.New(res.Program, s.config())
	switch s.Reuse {
	case ReuseRunMany:
		// Stats describe only a batch's last invocation (RunMany Resets
		// before each one), so every invocation is its own one-element
		// batch: the Stats after each call are exactly that invocation's,
		// and RunMany's entry Reset is the one it runs between invocations.
		for i := 0; i < 2; i++ {
			results, err := eng.RunMany(context.Background(), [][]value.Value{nil})
			if err != nil {
				fail("error", fmt.Sprintf("RunMany: %v", err))
				return
			}
			if err := results[0].Err; err != nil {
				fail("error", fmt.Sprintf("RunMany invocation %d: %v", i, err))
				return
			}
			check(results[0].Value, snap(eng.Stats()))
		}
	case ReuseReset:
		for i := 0; i < 3; i++ {
			if i > 0 {
				// Reset also rewinds the fault plan's execution cursors.
				if err := eng.Reset(); err != nil {
					fail("error", fmt.Sprintf("Reset: %v", err))
					return
				}
			}
			out, err := eng.Run()
			if err != nil {
				fail("error", fmt.Sprintf("run %d: %v", i, err))
				return
			}
			check(out, snap(eng.Stats()))
		}
	default:
		out, err := eng.Run()
		if err != nil {
			fail("error", err.Error())
			return
		}
		check(out, snap(eng.Stats()))
	}
}

// CheckSource compiles src and executes the program under every spec,
// comparing all fingerprints against the first run and checking runtime
// invariants on every run.
func CheckSource(file, src string, specs []RunSpec) *Report {
	rep := &Report{}
	res, err := compile.Compile(file, src, compile.Options{Registry: Operators()})
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{Kind: "error", Msg: fmt.Sprintf("compile: %v", err)})
		return rep
	}
	for _, s := range specs {
		runSpec(rep, s, res)
	}
	return rep
}

// CheckProgram runs a generated program through the full oracle matrix.
func CheckProgram(p *Program) *Report {
	return CheckSource(fmt.Sprintf("stress-%d.dlr", p.Cfg.Seed), p.Source(), Specs())
}
