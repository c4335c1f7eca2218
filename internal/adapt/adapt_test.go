package adapt

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/machine"
	"repro/internal/retina"
	"repro/internal/runtime"
)

func listingConfig() retina.Config {
	return retina.Config{W: 64, H: 64, K: 5, Slabs: 4, Timesteps: 1,
		TargetsPerQuarter: 16, TargetWork: 400, Seed: 1990}
}

func tuneRetina(t *testing.T) *Result {
	t.Helper()
	cfg := listingConfig()
	reg, err := retina.Operators(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(nil, "retina1.dlr", retina.Source(cfg, retina.V1), Config{
		Compile: compile.Options{Registry: reg, MemPlan: true},
		Runtime: runtime.Config{Mode: runtime.Simulated, Workers: 8,
			Machine: machine.CrayYMP(), MaxOps: 50_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTuneRetina runs the full adaptive loop on the unbalanced retina model
// and checks the acceptance shape: calibration measures every operator, the
// advisor names post_up as the split candidate, and the tuned plan never
// loses to the unit-weight baseline on the virtual clock.
func TestTuneRetina(t *testing.T) {
	res := tuneRetina(t)
	if len(res.Profile) == 0 {
		t.Fatal("empty profile")
	}
	for _, op := range []string{"post_up", "convol_bite", "pre_update"} {
		if res.Profile[op] < 1 {
			t.Errorf("profile missing %s: %v", op, res.Profile)
		}
	}
	// post_up does the work of four convol_bites serialized; the measured
	// weights must reflect that imbalance or the re-fuse learns nothing.
	if res.Profile["post_up"] <= res.Profile["convol_bite"] {
		t.Errorf("post_up weight %d not above convol_bite %d",
			res.Profile["post_up"], res.Profile["convol_bite"])
	}
	var split *runtime.Advisory
	for i := range res.Advisories {
		if res.Advisories[i].Verdict == runtime.AdviseSplit {
			split = &res.Advisories[i]
		}
	}
	if split == nil || split.Operator != "post_up" {
		t.Fatalf("advisor did not name post_up: %v", res.Advisories)
	}
	if res.TunedCost > res.BaselineCost {
		t.Errorf("tuned plan lost: %d > %d ticks", res.TunedCost, res.BaselineCost)
	}
	if res.Winner != "tuned" {
		t.Errorf("winner = %q", res.Winner)
	}
	if len(res.UnmatchedProfileKeys) != 0 {
		t.Errorf("self-measured profile left unmatched keys: %v", res.UnmatchedProfileKeys)
	}
	rep := res.Report()
	for _, want := range []string{"adaptive: calibrated", "keeping tuned", "post_up"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestTuneConvergence is the calibrate-once-keep-winner decision made
// testable: two independent tuning runs over the same program measure
// identical profiles and produce byte-identical fusion plans, so a second
// loop iteration could never change the plan.
func TestTuneConvergence(t *testing.T) {
	a := tuneRetina(t)
	b := tuneRetina(t)
	if len(a.Profile) != len(b.Profile) {
		t.Fatalf("profile sizes differ: %d vs %d", len(a.Profile), len(b.Profile))
	}
	for k, v := range a.Profile {
		if b.Profile[k] != v {
			t.Errorf("profile[%s] = %d vs %d across runs", k, v, b.Profile[k])
		}
	}
	ra, rb := a.Tuned.FusePlan.Report(), b.Tuned.FusePlan.Report()
	if ra != rb {
		t.Errorf("tuned fusion plans diverged:\n%s\nvs\n%s", ra, rb)
	}
}
