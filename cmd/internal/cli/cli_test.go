package cli

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runtime"
	"repro/internal/value"
)

func TestRegistrySelection(t *testing.T) {
	for _, app := range []string{"", "builtins", "queens", "retina", "ray", "circuit"} {
		reg, err := Registry(app)
		if err != nil {
			t.Errorf("Registry(%q): %v", app, err)
			continue
		}
		if _, ok := reg.Lookup("incr"); !ok {
			t.Errorf("Registry(%q) missing builtins", app)
		}
	}
	appOps := map[string]string{
		"queens":  "add_queen",
		"retina":  "convol_bite",
		"ray":     "rt_trace",
		"circuit": "ckt_bite",
	}
	for app, op := range appOps {
		reg, _ := Registry(app)
		if _, ok := reg.Lookup(op); !ok {
			t.Errorf("Registry(%q) missing %s", app, op)
		}
	}
	if _, err := Registry("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestMachineSelection(t *testing.T) {
	names := map[string]string{
		"":            "Cray Y-MP",
		"cray":        "Cray Y-MP",
		"CRAY2":       "Cray-2",
		"sequent":     "Sequent Symmetry",
		"butterfly":   "BBN Butterfly T2000",
		"workstation": "workstation",
	}
	for in, want := range names {
		m, err := Machine(in)
		if err != nil {
			t.Errorf("Machine(%q): %v", in, err)
			continue
		}
		if m.Name != want {
			t.Errorf("Machine(%q) = %q, want %q", in, m.Name, want)
		}
	}
	if _, err := Machine("pdp11"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestAffinitySelection(t *testing.T) {
	cases := map[string]runtime.AffinityPolicy{
		"": runtime.AffinityNone, "none": runtime.AffinityNone,
		"operator": runtime.AffinityOperator, "op": runtime.AffinityOperator,
		"data": runtime.AffinityData,
	}
	for in, want := range cases {
		got, err := Affinity(in)
		if err != nil || got != want {
			t.Errorf("Affinity(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := Affinity("magnetic"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestParseArgs(t *testing.T) {
	got := ParseArgs([]string{"42", "-7", "2.5", "true", "false", "NULL", "hello"})
	want := []value.Value{
		value.Int(42), value.Int(-7), value.Float(2.5),
		value.Bool(true), value.Bool(false), value.Null{}, value.Str("hello"),
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if !value.Equal(got[i], want[i]) {
			t.Errorf("arg[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMeanWeight(t *testing.T) {
	cases := []struct {
		total int64
		calls int
		want  int64
	}{
		{0, 0, 0},    // no calls: no weight, and crucially no divide
		{100, 0, 0},  // ditto with a nonzero total
		{100, 4, 25}, // exact mean
		{10, 4, 3},   // rounds to nearest (2.5 → 3)
		{1, 4, 1},    // sub-unit means floor at 1, never truncate to 0
		{0, 4, 1},    // zero total still yields a positive weight
	}
	for _, c := range cases {
		if got := MeanWeight(c.total, c.calls); got != c.want {
			t.Errorf("MeanWeight(%d, %d) = %d, want %d", c.total, c.calls, got, c.want)
		}
	}
}

func TestLoadSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.dlr")
	if err := os.WriteFile(path, []byte("main() 1"), 0o644); err != nil {
		t.Fatal(err)
	}
	name, src, err := LoadSource(path)
	if err != nil || name != path || src != "main() 1" {
		t.Errorf("LoadSource = %q, %q, %v", name, src, err)
	}
	if _, _, err := LoadSource(filepath.Join(dir, "missing.dlr")); err == nil {
		t.Error("missing file accepted")
	}
}
