package compile_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/stress"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned_graphs.txt")

const pinnedGolden = "testdata/pinned_graphs.txt"

// pinnedDigests compiles the pinned corpus and returns one line per
// program: its name, the sha256 of the graph's Dot rendering, the sha256 of
// the optimizer counters, and the template count.
func pinnedDigests(t *testing.T) []string {
	t.Helper()
	hash := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	var lines []string
	add := func(name, src string, opts compile.Options) {
		res, err := compile.Compile("pinned.dlr", src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s dot=%s opt=%s templates=%d",
			name, hash(res.Program.Dot()), hash(res.OptStats.String()), len(res.Program.Templates)))
	}
	optionSets := []struct {
		name string
		opts compile.Options
	}{
		{"fuse+memplan", compile.Options{Fuse: true, MemPlan: true}},
		{"default", compile.Options{}},
		{"o1", compile.Options{OptLevel: 1}},
		{"o0", compile.Options{OptLevel: -1}},
	}
	for seed := int64(1990); seed <= 2049; seed++ {
		src := stress.Generate(stress.GenConfig{Funcs: 16, Seed: seed})
		for _, o := range optionSets {
			opts := o.opts
			opts.Registry = stress.Operators()
			add(fmt.Sprintf("stress-%d/%s", seed, o.name), src, opts)
		}
	}
	for n := 6; n <= 30; n++ {
		add(fmt.Sprintf("gen-%d", n), compile.Generate(n, 3), compile.Options{})
	}
	return lines
}

// TestCompiledGraphsPinned holds the compiler's output to a committed
// golden: every graph, optimizer count and template count of a fixed corpus
// must stay byte-identical. A change to the optimizer's data structures
// must not change what it computes; a change that means to alter the
// output regenerates the golden with -update-pinned and says why.
func TestCompiledGraphsPinned(t *testing.T) {
	got := pinnedDigests(t)
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-pinned)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d programs, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d pinned programs changed", bad, len(got))
	}
}
