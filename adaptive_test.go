package delirium_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/operator"
	"repro/internal/opt"
	"repro/internal/retina"
	"repro/internal/runtime"
	"repro/internal/value"
)

// The adaptive loop's safety contract: profile weights only reorder ready
// queues — they must never change results. These tests stack the profiled
// recompile on top of every other runtime feature (memory plan, engine
// reuse, retry with seeded faults, 1/2/8 workers, both clocks) and demand
// bit-identity with the sequential reference throughout.

func adaptiveTestConfig() retina.Config {
	return retina.Config{W: 32, H: 32, K: 5, Slabs: 4, Timesteps: 2,
		TargetsPerQuarter: 8, TargetWork: 200, Seed: 77}
}

// calibrateProfile compiles with unit weights and measures mean operator
// costs on a single-worker simulated run, mirroring adapt.Tune's
// calibration pass.
func calibrateProfile(t *testing.T, cfg retina.Config) map[string]int64 {
	t.Helper()
	res := compileRetina(t, cfg, nil)
	eng := runtime.New(res.Program, runtime.Config{
		Mode: runtime.Simulated, Workers: 1, Timing: true,
		Machine: machine.CrayYMP(), MaxOps: 50_000_000})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("calibration run: %v", err)
	}
	prof := eng.ProfileWeights()
	if len(prof) == 0 {
		t.Fatal("calibration measured nothing")
	}
	return prof
}

func compileRetina(t *testing.T, cfg retina.Config, prof map[string]int64) *compile.Result {
	t.Helper()
	reg, err := retina.Operators(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Compile("retina1.dlr", retina.Source(cfg, retina.V1), compile.Options{
		Registry: reg, Fuse: true, MemPlan: true, FuseProfile: prof})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveCalibrationDeterministic: identical calibration runs measure
// identical profiles, and recompiling with the measured profile yields a
// byte-identical fusion plan — the property that makes calibrate-once sound.
func TestAdaptiveCalibrationDeterministic(t *testing.T) {
	cfg := adaptiveTestConfig()
	p1 := calibrateProfile(t, cfg)
	p2 := calibrateProfile(t, cfg)
	if len(p1) != len(p2) {
		t.Fatalf("profile sizes differ: %d vs %d", len(p1), len(p2))
	}
	for k, v := range p1 {
		if p2[k] != v {
			t.Errorf("profile[%s] = %d vs %d across identical runs", k, v, p2[k])
		}
	}
	r1 := compileRetina(t, cfg, p1).FusePlan.Report()
	r2 := compileRetina(t, cfg, p2).FusePlan.Report()
	if r1 != r2 {
		t.Errorf("fusion plans diverged for identical profiles:\n%s\nvs\n%s", r1, r2)
	}
}

// TestAdaptiveOutputsBitIdentical: baseline and profile-tuned plans produce
// the same scene as the sequential reference at every worker count, with the
// memory plan on, engines reused via Reset, and a seeded fault leg driving
// the retry machinery through the tuned plan.
func TestAdaptiveOutputsBitIdentical(t *testing.T) {
	cfg := adaptiveTestConfig()
	ref := retina.Reference(cfg)
	prof := calibrateProfile(t, cfg)

	plans := map[string]map[string]int64{"baseline": nil, "tuned": prof}
	for planName, p := range plans {
		res := compileRetina(t, cfg, p)
		for _, workers := range []int{1, 2, 8} {
			for _, mode := range []runtime.Mode{runtime.Simulated, runtime.Real} {
				rcfg := runtime.Config{Mode: mode, Workers: workers, MaxOps: 50_000_000}
				if mode == runtime.Simulated {
					rcfg.Machine = machine.CrayYMP()
				}
				eng := runtime.New(res.Program, rcfg)
				for run := 0; run < 2; run++ { // reuse leg: Reset must not perturb results
					if run > 0 {
						if err := eng.Reset(); err != nil {
							t.Fatalf("%s w%d %v: reset: %v", planName, workers, mode, err)
						}
					}
					out, err := eng.Run()
					if err != nil {
						t.Fatalf("%s w%d %v run %d: %v", planName, workers, mode, run, err)
					}
					scene, err := retina.ExtractScene(out)
					if err != nil {
						t.Fatal(err)
					}
					if !retina.Equal(scene, ref) {
						t.Errorf("%s w%d %v run %d diverged from reference", planName, workers, mode, run)
					}
				}
			}
		}

		// Fault leg: seeded chaos on two operators plus retry, 2 workers.
		fcfg := runtime.Config{Mode: runtime.Real, Workers: 2, MaxOps: 50_000_000,
			Retry:  runtime.RetryPolicy{MaxAttempts: 3},
			Faults: runtime.SeededFaultPlan(7, []string{"convol_bite", "post_up"}, 8)}
		eng := runtime.New(res.Program, fcfg)
		out, err := eng.Run()
		if err != nil {
			t.Fatalf("%s fault leg: %v", planName, err)
		}
		if eng.Stats().FaultsInjected == 0 {
			t.Errorf("%s fault leg injected nothing", planName)
		}
		scene, err := retina.ExtractScene(out)
		if err != nil {
			t.Fatal(err)
		}
		if !retina.Equal(scene, ref) {
			t.Errorf("%s fault leg diverged from reference", planName)
		}
	}
}

// The two scheduling wins that are deterministic — they show in virtual
// ticks on the Simulated executor, whatever the host — are ordinary
// assertions here rather than benchmark gates.

// adaptiveChainRegistry builds operators with a 10x cost asymmetry the
// compiler cannot see: hslow charges ten times what hfast does, but only at
// run time. Unit-weight fusion ranks their chains identically;
// profile-guided fusion learns the difference.
func adaptiveChainRegistry() *operator.Registry {
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{
		Name: "hseed", Arity: 0,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			ctx.Charge(1)
			return value.Int(1), nil
		},
	})
	for _, op := range []struct {
		name   string
		charge int64
	}{{"hfast", 4_000}, {"hslow", 40_000}} {
		charge := op.charge
		reg.MustRegister(&operator.Operator{
			Name: op.name, Arity: 1,
			Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
				ctx.Charge(charge)
				return args[0], nil
			},
		})
	}
	reg.MustRegister(&operator.Operator{
		Name: "hjoin", Arity: 7,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			ctx.Charge(1)
			var s value.Int
			for _, a := range args {
				s += a.(value.Int)
			}
			return s, nil
		},
	})
	return reg
}

// adaptiveChainSource is seven 8-deep chains joined at arity 7, with the
// heavy chain declared in the MIDDLE of the cheap ones. Declaration order is
// the unit-weight tie-break, so an unprofiled schedule starts three cheap
// chains before the heavy one — the makespan then carries that late start.
// Measured weights push the heavy chain's bottom level past every cheap
// chain and it starts first.
func adaptiveChainSource() string {
	var b strings.Builder
	b.WriteString("main()\n  let s = hseed()\n")
	ends := make([]string, 0, 7)
	for c := 1; c <= 7; c++ {
		op := "hfast"
		if c == 4 {
			op = "hslow"
		}
		prev := "s"
		for k := 1; k <= 8; k++ {
			v := fmt.Sprintf("c%dk%d", c, k)
			fmt.Fprintf(&b, "      %s = %s(%s)\n", v, op, prev)
			prev = v
		}
		ends = append(ends, prev)
	}
	fmt.Fprintf(&b, "  in hjoin(%s)\n", strings.Join(ends, ","))
	return b.String()
}

// simMakespan runs prog on the simulated machine and returns its virtual
// finish time.
func simMakespan(t *testing.T, prog *graph.Program, cfg runtime.Config) int64 {
	t.Helper()
	cfg.Mode, cfg.MaxOps = runtime.Simulated, 10_000_000
	eng := runtime.New(prog, cfg)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.Stats().MakespanTicks
}

// TestAdaptiveChainTunedBeatsUnit: re-fusing with calibrated weights must
// cut the chain workload's makespan at two virtual workers by at least 5 %
// (≈ 9 % measured) — the heavy chain schedules first instead of fourth.
func TestAdaptiveChainTunedBeatsUnit(t *testing.T) {
	opts := compile.Options{Registry: adaptiveChainRegistry(), Fuse: true}
	unit, err := compile.Compile("chain.dlr", adaptiveChainSource(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cal := runtime.New(unit.Program, runtime.Config{Mode: runtime.Simulated, Workers: 1,
		Timing: true, Machine: machine.CrayYMP(), MaxOps: 1_000_000})
	if _, err := cal.Run(); err != nil {
		t.Fatal(err)
	}
	if opts.FuseProfile = cal.ProfileWeights(); len(opts.FuseProfile) == 0 {
		t.Fatal("calibration measured nothing")
	}
	tuned, err := compile.Compile("chain.dlr", adaptiveChainSource(), opts)
	if err != nil {
		t.Fatal(err)
	}
	two := runtime.Config{Workers: 2, Machine: machine.CrayYMP()}
	u, tu := simMakespan(t, unit.Program, two), simMakespan(t, tuned.Program, two)
	if float64(tu) > 0.95*float64(u) {
		t.Errorf("tuned makespan %d vs unit-weight %d ticks: want at least 5%% lower", tu, u)
	}
}

// affinityChainRegistry builds the block-chain operators for the locality
// pair: amk allocates an owned block, astep mutates it in place, asum folds
// it to a float. Work charges are kept small relative to the block size so
// the modeled memory traffic — local vs remote words on the NUMA profile —
// dominates each step's price.
func affinityChainRegistry() *operator.Registry {
	reg := operator.NewRegistry(operator.Builtins())
	reg.MustRegister(&operator.Operator{
		Name: "amk", Arity: 1, Fresh: true,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			n := int(args[0].(value.Int))
			vec := make(value.FloatVec, n)
			for i := range vec {
				vec[i] = float64(i % 7)
			}
			ctx.Charge(int64(n / 8))
			return value.NewBlockStats(vec, ctx.BlockStats()), nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "astep", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			vec := args[0].(*value.Block).Data().(value.FloatVec)
			for i := range vec {
				vec[i] += 1
			}
			ctx.Charge(int64(len(vec) / 8))
			return args[0], nil
		},
	})
	reg.MustRegister(&operator.Operator{
		Name: "asum", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			vec := args[0].(*value.Block).Data().(value.FloatVec)
			var s float64
			for _, x := range vec {
				s += x
			}
			ctx.Charge(int64(len(vec) / 8))
			return value.Float(s), nil
		},
	})
	return reg
}

// affinityChainSource is `chains` independent destructive block chains of
// `depth` astep links over `words`-word blocks, folded with adds — one
// block-carrying chain per processor with room to spare, so a scheduler
// that follows the compile-time hints keeps every chain on one processor
// (all-local traffic) while earliest-free placement scatters the links
// across processors and pays the remote-word rate on each hop.
func affinityChainSource(chains, depth, words int) string {
	var sb strings.Builder
	sb.WriteString("main()\n  let ")
	for c := 1; c <= chains; c++ {
		prev := fmt.Sprintf("c%dk0", c)
		fmt.Fprintf(&sb, "%s = amk(%d)\n      ", prev, words)
		for k := 1; k <= depth; k++ {
			v := fmt.Sprintf("c%dk%d", c, k)
			fmt.Fprintf(&sb, "%s = astep(%s)\n      ", v, prev)
			prev = v
		}
		fmt.Fprintf(&sb, "s%d = asum(%s)\n", c, prev)
		if c < chains {
			sb.WriteString("      ")
		}
	}
	fold := "s1"
	for c := 2; c <= chains; c++ {
		fold = fmt.Sprintf("add(%s, s%d)", fold, c)
	}
	fmt.Fprintf(&sb, "  in %s\n", fold)
	return sb.String()
}

// TestAffinityHintsBeatEarliestFree: twelve 8-deep 512-word chains on the
// simulated BBN Butterfly (16 procs, remote words 6x local). Following the
// affinity plan's hints must cut the makespan by at least 10 % (4 512 vs
// 6 816 ticks measured). The program is compiled unfused on purpose — every
// chain link is then an individual placement decision, which is exactly
// what the hints arbitrate (fusion would collapse each chain to one
// supernode and hide the placement problem).
func TestAffinityHintsBeatEarliestFree(t *testing.T) {
	res, err := compile.Compile("affinity.dlr", affinityChainSource(12, 8, 512),
		compile.Options{Registry: affinityChainRegistry(), MemPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	opt.PlanAffinity(res.Program)
	butterfly := runtime.Config{Workers: 16, Machine: machine.Butterfly()}
	off := simMakespan(t, res.Program, butterfly)
	butterfly.AffinityHints = true
	on := simMakespan(t, res.Program, butterfly)
	if float64(on) > 0.90*float64(off) {
		t.Errorf("hinted makespan %d vs earliest-free %d ticks: want at least 10%% lower", on, off)
	}
}
