package runtime

// Profile extraction: turning one run's timing log into the per-operator
// weight map the fusion pass consumes (compile.Options.FuseProfile). This is
// the measurement half of the adaptive loop — calibrate with Timing on,
// extract ProfileWeights, recompile, re-run.

// ProfileWeights aggregates the timing log into mean cost per operator name,
// suitable for compile.Options.FuseProfile. Returns nil when timing was
// disabled or nothing was recorded.
//
// Two normalizations keep a round-tripped profile stable:
//
//   - Simulated-mode entries for unfused operators include the machine's
//     dispatch charge, while entries recorded inside fused supernodes price
//     the operator body only (the saved dispatch is exactly what fusion
//     models). Feeding heads-plus-dispatch back into fusion would make a
//     profiled recompile see different costs than the run it measured, so
//     the dispatch charge is subtracted from unfused entries first.
//   - Means are rounded half-up and floored at 1: a weight of 0 would make
//     an operator look free to the bottom-level computation, inverting
//     tie-breaks against operators the profile never saw (which default
//     to 1).
func (e *Engine) ProfileWeights() map[string]int64 {
	if e.timing == nil {
		return nil
	}
	var dispatch int64
	if e.cfg.Mode == Simulated {
		dispatch = e.cfg.profile().DispatchTicks
	}
	type acc struct {
		total int64
		calls int64
	}
	sums := make(map[string]*acc)
	for _, en := range e.timing.Entries() {
		cost := en.Ticks
		if !en.Fused {
			cost -= dispatch
		}
		if cost < 1 {
			cost = 1
		}
		a := sums[en.Name]
		if a == nil {
			a = &acc{}
			sums[en.Name] = a
		}
		a.total += cost
		a.calls++
	}
	if len(sums) == 0 {
		return nil
	}
	out := make(map[string]int64, len(sums))
	for name, a := range sums {
		w := (a.total + a.calls/2) / a.calls
		if w < 1 {
			w = 1
		}
		out[name] = w
	}
	return out
}
