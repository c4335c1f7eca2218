package trace

import (
	"fmt"
	"strings"
)

// Granularity advisor — structured warnings layered on the critical-path
// analysis. The critpath verdict says *whether* the run is imbalanced; the
// advisor says *which* operators to attack and *why*, in a form tools can
// render ("post_up holds 62% of the critical path at 8 workers — consider
// splitting"). The S-Net vs CnC comparison in the related work makes the
// case that granularity choice, not raw scheduling, decides
// coordination-language throughput — the advisor is the system telling the
// user which granularity decision to revisit.

// Advisory severities.
const (
	// AdviseSplit: the operator dominates the path and runs serialized —
	// decomposing it (the paper's §5.2 post_up split) is what buys speedup.
	AdviseSplit = "split"
	// AdviseWatch: the operator dominates the path but still runs wide —
	// more processors help before a decomposition would.
	AdviseWatch = "watch"
)

// Advisory is one structured granularity warning.
type Advisory struct {
	// Verdict is AdviseSplit or AdviseWatch.
	Verdict string
	// Operator is the offending operator name.
	Operator string
	// PathShare is the fraction of the critical path held by the operator's
	// on-path instances; Serialization the fraction of its own total work
	// that sits on the path (1.0 = fully chained).
	PathShare     float64
	Serialization float64
	// Workers is the worker count of the analyzed run (0 if unknown) —
	// context for the rendered message, since a chain that serializes at 8
	// workers may be invisible at 1.
	Workers int
}

// String renders the advisory as the one-line warning the tools print.
func (a Advisory) String() string {
	at := ""
	if a.Workers > 0 {
		at = fmt.Sprintf(" at %d worker%s", a.Workers, plural(a.Workers))
	}
	switch a.Verdict {
	case AdviseSplit:
		return fmt.Sprintf("`%s` holds %.0f%% of the critical path%s and runs %.0f%% serialized — consider splitting it into finer operators",
			a.Operator, a.PathShare*100, at, a.Serialization*100)
	default:
		return fmt.Sprintf("`%s` holds %.0f%% of the critical path%s but runs %.1fx wide — more workers help before a split would",
			a.Operator, a.PathShare*100, at, 1/a.Serialization)
	}
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// Advise derives granularity advisories from the analysis. Operators holding
// at least the dominance threshold of the critical path are reported: as
// AdviseSplit when their work is serialized past the serial threshold (a
// structural bottleneck no processor count fixes), as AdviseWatch otherwise.
// workers is the analyzed run's worker count, carried into the message; pass
// 0 if unknown. Returns nil for a path with no dominant operator.
func (c *CritPath) Advise(workers int) []Advisory {
	if c == nil || c.PathTicks == 0 {
		return nil
	}
	var out []Advisory
	for _, op := range c.Operators {
		share := float64(op.OnPath) / float64(c.PathTicks)
		if share < dominanceThreshold {
			break // Operators is sorted by descending on-path time
		}
		a := Advisory{
			Verdict:       AdviseWatch,
			Operator:      op.Name,
			PathShare:     share,
			Serialization: op.Serialization(),
			Workers:       workers,
		}
		if a.Serialization >= serialThreshold {
			a.Verdict = AdviseSplit
		}
		out = append(out, a)
	}
	return out
}

// RenderAdvisories formats advisories one per line with a "advisory:" prefix,
// the form delprof and delc print. Empty input renders an all-clear line.
func RenderAdvisories(advs []Advisory) string {
	if len(advs) == 0 {
		return "advisory: none — no operator dominates the critical path\n"
	}
	var b strings.Builder
	for _, a := range advs {
		fmt.Fprintf(&b, "advisory: %s\n", a.String())
	}
	return b.String()
}
