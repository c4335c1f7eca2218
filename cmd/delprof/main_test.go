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

// TestDelprofSmoke builds the profiler and runs it end to end on the
// eight-queens program with tracing and critical-path analysis on, checking
// exit status, the summary table, the verdict line, and that the trace file
// is valid Chrome trace-event JSON.
func TestDelprofSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/delprof")
	traceFile := filepath.Join(dir, "out.json")

	cmd := exec.Command(bin, "-sim", "-app", "queens", "-top", "5",
		"-trace", traceFile, "-critpath", "programs/queens8.dlr")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("delprof failed: %v\n%s", err, out)
	}
	for _, want := range []string{"result:", "operator", "critical path:", "verdict:", "trace: wrote"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
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
	cmd := exec.Command(bin, "-sim=false", "-workers", "2", "-app", "queens", "-fuse", "-runs", "3",
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

// TestDelprofAdaptive runs the closed loop end to end on the unbalanced
// retina model: -adaptive must complete unattended, report the
// baseline-vs-tuned comparison, name post_up in a granularity advisory, and
// write a loadable profile.
func TestDelprofAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/delprof")
	profFile := filepath.Join(dir, "prof.json")

	cmd := exec.Command(bin, "-sim", "-app", "retina", "-adaptive",
		"-workers", "8", "-profout", profFile, "programs/retina1.dlr")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("delprof -adaptive failed: %v\n%s", err, out)
	}
	for _, want := range []string{"adaptive: calibrated", "keeping tuned plan",
		"advisory:", "post_up"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(profFile)
	if err != nil {
		t.Fatalf("profile file: %v", err)
	}
	var prof map[string]int64
	if err := json.Unmarshal(data, &prof); err != nil {
		t.Fatalf("profile is not valid JSON: %v\n%s", err, data)
	}
	if prof["post_up"] < 1 || prof["convol_bite"] < 1 {
		t.Errorf("profile missing measured operators: %v", prof)
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
