package experiments

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/compile"
	"repro/internal/machine"
	"repro/internal/retina"
	"repro/internal/runtime"
)

// TuneText runs the closed profile-guided loop on the unbalanced retina
// model at the §5.2 listing scale: compile with unit weights, calibrate with
// timing and tracing on, re-fuse with the measured per-operator costs,
// re-run both plans, keep the winner — and print the granularity advisor's
// verdict, which should finger post_up exactly as the paper's authors did by
// reading the timing listing.
func TuneText() (string, error) {
	cfg := listingConfig()
	reg, err := retina.Operators(cfg)
	if err != nil {
		return "", err
	}
	res, err := adapt.Tune(nil, "retina1.dlr", retina.Source(cfg, retina.V1), adapt.Config{
		Compile: compile.Options{Registry: reg, MemPlan: true, Fuse: true},
		Runtime: runtime.Config{Mode: runtime.Simulated, Workers: 4,
			Machine: machine.CrayYMP(), MaxOps: 50_000_000},
	})
	if err != nil {
		return "", err
	}
	head := fmt.Sprintf("Adaptive loop, unbalanced retina (%s version), simulated Cray, 4 workers:\n\n",
		retina.V1)
	return head + res.Report(), nil
}
