package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoPrioritiesNeedsSim checks that -no-priorities without -sim is a
// usage error: Real mode has no priority levels for the flag to collapse.
func TestNoPrioritiesNeedsSim(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "delirium")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-no-priorities", "-e", "add(1, 2)").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("-no-priorities without -sim: want exit 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "add -sim") {
		t.Errorf("missing the usage message:\n%s", out)
	}
	out, err = exec.Command(bin, "-sim", "-no-priorities", "-e", "add(1, 2)").CombinedOutput()
	if err != nil || strings.TrimSpace(string(out)) != "3" {
		t.Errorf("-sim -no-priorities: got %v\n%s", err, out)
	}
}
