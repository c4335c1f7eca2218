package runtime

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestAdviseVerdicts(t *testing.T) {
	cp := &trace.CritPath{
		Unit:      "ticks",
		PathTicks: 1000,
		Operators: []trace.CritOp{
			// Dominant and fully serialized: must advise a split.
			{Name: "post_up", Calls: 4, OnPathCalls: 4, OnPath: 620, Total: 620},
			// Dominant but running 4x wide: watch, not split.
			{Name: "convol_bite", Calls: 16, OnPathCalls: 4, OnPath: 500, Total: 2000},
			// Below the dominance threshold: no advisory at all.
			{Name: "incr", Calls: 4, OnPathCalls: 4, OnPath: 100, Total: 100},
		},
	}
	advs := cp.Advise(8)
	if len(advs) != 2 {
		t.Fatalf("got %d advisories, want 2: %v", len(advs), advs)
	}
	if advs[0].Verdict != trace.AdviseSplit || advs[0].Operator != "post_up" {
		t.Errorf("first advisory = %+v, want split on post_up", advs[0])
	}
	if advs[1].Verdict != trace.AdviseWatch || advs[1].Operator != "convol_bite" {
		t.Errorf("second advisory = %+v, want watch on convol_bite", advs[1])
	}
	msg := advs[0].String()
	for _, want := range []string{"post_up", "62%", "8 workers", "splitting"} {
		if !strings.Contains(msg, want) {
			t.Errorf("split advisory %q missing %q", msg, want)
		}
	}
	if !strings.Contains(advs[1].String(), "more workers help") {
		t.Errorf("watch advisory %q missing worker hint", advs[1].String())
	}
}

func TestAdviseEmptyAndNil(t *testing.T) {
	var nilPath *trace.CritPath
	if advs := nilPath.Advise(4); advs != nil {
		t.Errorf("nil path advised: %v", advs)
	}
	balanced := &trace.CritPath{PathTicks: 1000, Operators: []trace.CritOp{
		{Name: "a", OnPath: 200, Total: 800},
		{Name: "b", OnPath: 150, Total: 600},
	}}
	if advs := balanced.Advise(4); advs != nil {
		t.Errorf("balanced path advised: %v", advs)
	}
	if got := trace.RenderAdvisories(nil); !strings.Contains(got, "advisory: none") {
		t.Errorf("empty render = %q", got)
	}
}
