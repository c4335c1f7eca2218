package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles this command into dir and returns the binary path.
// Shared by the delx smoke test via the same helper shape.
func buildCmd(t *testing.T, dir, pkg string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestDelprofSmoke builds the profiler and runs it end to end with
// critical-path analysis on: the eight-queens program with tracing (exit
// status, the summary table, the verdict line, and a trace file of valid
// Chrome trace-event JSON), and the unbalanced retina on 8 simulated Cray
// workers, where the granularity advisor must name post_up — the operator
// the paper's authors found by reading the §5.2 listing.
func TestDelprofSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/delprof")
	traceFile := filepath.Join(dir, "out.json")

	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-sim", "-app", "queens", "-top", "5", "-trace", traceFile, "-critpath", "programs/queens8.dlr"},
			[]string{"result:", "operator", "critical path:", "verdict:", "trace: wrote"}},
		{[]string{"-sim", "-app", "retina", "-workers", "8", "-top", "3", "-critpath", "programs/retina1.dlr"},
			[]string{"critical path:", "verdict: imbalanced", "advisory: `post_up`"}},
	} {
		cmd := exec.Command(bin, c.args...)
		cmd.Dir = repoRoot(t)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("delprof %s failed: %v\n%s", strings.Join(c.args, " "), err, out)
		}
		for _, want := range c.want {
			if !strings.Contains(string(out), want) {
				t.Errorf("delprof %s: output missing %q:\n%s", strings.Join(c.args, " "), want, out)
			}
		}
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}

// TestDelprofProfiles runs the eight-queens program a few times on two Real
// workers with -cpuprofile and -memprofile and checks both profiles were
// written.
func TestDelprofProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/delprof")
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	cmd := exec.Command(bin, "-sim=false", "-workers", "2", "-app", "queens", "-runs", "3",
		"-cpuprofile", cpu, "-memprofile", mem, "programs/queens8.dlr")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("delprof failed: %v\n%s", err, out)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", filepath.Base(f), err)
		}
	}
}

// TestDelprofUsage checks the no-argument error path exits 2 with usage.
func TestDelprofUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, t.TempDir(), "./cmd/delprof")
	cmd := exec.Command(bin)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "usage: delprof") {
		t.Errorf("missing usage:\n%s", out)
	}
}
