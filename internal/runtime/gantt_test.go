package runtime

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/value"
)

// Tests for the §5.2 observability surface: the Gantt timeline renderer,
// per-processor loads, and the TimingLog sort that makes Listing and
// Summarize deterministic under real-mode concurrency.

func TestGanttEmpty(t *testing.T) {
	if got := trace.NewTimingLog(nil).Gantt(40); got != "(no timing entries)\n" {
		t.Errorf("empty gantt = %q", got)
	}
}

// TestGanttScaling paints two non-overlapping halves of the makespan on two
// processors and checks cell-exact output: entries scale into the requested
// width and idle time prints as dots.
func TestGanttScaling(t *testing.T) {
	l := trace.NewTimingLog([]trace.TimingEntry{
		{Name: "aa", Proc: 0, Start: 0, Ticks: 50},
		{Name: "bb", Proc: 1, Start: 50, Ticks: 50},
	})
	got := l.Gantt(10)
	want := "virtual time 0..100 ticks, 10 cells/row\n" +
		"proc  0 |aa###.....|\n" +
		"proc  1 |.....bb###|\n"
	if got != want {
		t.Errorf("gantt:\n%s\nwant:\n%s", got, want)
	}
}

// TestGanttMinWidth checks the width floor: anything under 10 cells renders
// at 10.
func TestGanttMinWidth(t *testing.T) {
	l := trace.NewTimingLog([]trace.TimingEntry{
		{Name: "x", Proc: 0, Start: 0, Ticks: 10},
	})
	got := l.Gantt(3)
	if !strings.Contains(got, "10 cells/row") {
		t.Errorf("width not clamped to 10:\n%s", got)
	}
}

// TestGanttPaintOrder checks that longer entries paint before shorter ones,
// so a tiny operator stays visible as an overlay on a dominant one instead of
// being buried under it.
func TestGanttPaintOrder(t *testing.T) {
	l := trace.NewTimingLog([]trace.TimingEntry{
		{Name: "yy", Proc: 0, Start: 0, Ticks: 10},
		{Name: "xx", Proc: 0, Start: 0, Ticks: 100},
	})
	got := l.Gantt(10)
	if !strings.Contains(got, "|yx########|") {
		t.Errorf("short entry buried under long one:\n%s", got)
	}
}

// TestGanttZeroTickEntry checks a zero-duration entry still paints one cell.
func TestGanttZeroTickEntry(t *testing.T) {
	l := trace.NewTimingLog([]trace.TimingEntry{
		{Name: "z", Proc: 0, Start: 5, Ticks: 0},
		{Name: "w", Proc: 0, Start: 0, Ticks: 10},
	})
	got := l.Gantt(10)
	if !strings.Contains(got, "z") {
		t.Errorf("zero-tick entry invisible:\n%s", got)
	}
}

// TestGanttStolenMark checks that a stolen task's segment opens with '%'
// and the header explains the mark.
func TestGanttStolenMark(t *testing.T) {
	l := trace.NewTimingLog([]trace.TimingEntry{
		{Name: "aa", Proc: 0, Start: 0, Ticks: 50},
		{Name: "bb", Proc: 1, Start: 50, Ticks: 50, Stolen: true},
	})
	got := l.Gantt(10)
	want := "virtual time 0..100 ticks, 10 cells/row  (% stolen)\n" +
		"proc  0 |aa###.....|\n" +
		"proc  1 |.....%b###|\n"
	if got != want {
		t.Errorf("gantt:\n%s\nwant:\n%s", got, want)
	}
}

func TestProcLoads(t *testing.T) {
	l := trace.NewTimingLog([]trace.TimingEntry{
		{Name: "a", Proc: 0, Start: 0, Ticks: 30},
		{Name: "b", Proc: 2, Start: 0, Ticks: 50},
		{Name: "c", Proc: 0, Start: 30, Ticks: 20},
	})
	loads := l.ProcLoads()
	if len(loads) != 3 {
		t.Fatalf("len(loads) = %d, want 3", len(loads))
	}
	if loads[0] != 50 || loads[1] != 0 || loads[2] != 50 {
		t.Errorf("loads = %v, want [50 0 50]", loads)
	}
}

// TestTimingEntriesSorted is the regression test for nondeterministic
// Listing/Gantt order: Entries must come back sorted by (Start, Proc, Name)
// no matter what order workers recorded them in.
func TestTimingEntriesSorted(t *testing.T) {
	base := []trace.TimingEntry{
		{Name: "a", Proc: 0, Start: 0, Ticks: 1},
		{Name: "b", Proc: 0, Start: 0, Ticks: 1},
		{Name: "a", Proc: 1, Start: 0, Ticks: 1},
		{Name: "c", Proc: 3, Start: 5, Ticks: 1},
		{Name: "c", Proc: 2, Start: 5, Ticks: 1},
		{Name: "d", Proc: 0, Start: 9, Ticks: 1},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var perm []trace.TimingEntry
		for _, i := range rng.Perm(len(base)) {
			perm = append(perm, base[i])
		}
		got := trace.NewTimingLog(perm).Entries()
		for i := 1; i < len(got); i++ {
			p, c := got[i-1], got[i]
			before := p.Start < c.Start ||
				(p.Start == c.Start && (p.Proc < c.Proc ||
					(p.Proc == c.Proc && p.Name <= c.Name)))
			if !before {
				t.Fatalf("trial %d: entries out of order at %d: %+v then %+v", trial, i, p, c)
			}
		}
		if len(got) != len(base) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(base))
		}
	}
}

// TestTimingListingGolden runs a deterministic simulated program twice and
// checks Listing and the summary are byte-identical across runs, with the
// exact calls the program makes.
func TestTimingListingGolden(t *testing.T) {
	const src = "main() add(mul(3, 4), incr(5))"
	render := func() (string, []trace.TimingSummary) {
		g := compile(t, src, nil)
		e := New(g, Config{Mode: Simulated, Workers: 1, Timing: true})
		v, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if v != value.Int(18) {
			t.Fatalf("result = %v, want 18", v)
		}
		return e.Timing().Listing(nil), e.Timing().Summarize()
	}
	l1, s1 := render()
	l2, s2 := render()
	if l1 != l2 {
		t.Errorf("two identical sim runs rendered different listings:\n%s\nvs\n%s", l1, l2)
	}
	for _, name := range []string{"add", "mul", "incr"} {
		if !strings.Contains(l1, "call of "+name+" took ") {
			t.Errorf("listing missing %s:\n%s", name, l1)
		}
	}
	calls := make(map[string]int)
	for i, s := range s1 {
		calls[s.Name] = s.Calls
		if s.Total <= 0 {
			t.Errorf("summary row %s has non-positive total", s.Name)
		}
		if i > 0 && s.Total > s1[i-1].Total {
			t.Errorf("summary not sorted by descending total at %s", s.Name)
		}
		if s2[i] != s {
			t.Errorf("summaries differ across runs at row %d", i)
		}
	}
	for _, name := range []string{"add", "mul", "incr"} {
		if calls[name] != 1 {
			t.Errorf("%s calls = %d, want 1", name, calls[name])
		}
	}
}
