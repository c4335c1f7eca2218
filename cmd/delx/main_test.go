package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDelx compiles the command into dir and returns the binary path.
func buildDelx(t *testing.T, dir string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	bin := filepath.Join(dir, "delx")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/delx")
	cmd.Dir = delxRepoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func delxRepoRoot(t *testing.T) string {
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

// goldenIDs are the deterministic experiments: simulated-machine figures and
// tables, the §5.2 listings and the queens check. Their output never depends
// on the host, so each block must match docs/delx-output.txt byte for byte.
var goldenIDs = []string{"fig1", "tab1", "tab2", "lst1", "lst2", "ovh", "prio", "aff", "mem", "opt", "queens"}

// delxBlocks splits delx output into its "=== id: title ===" blocks, keyed
// by id, with the blank line that separates blocks trimmed.
func delxBlocks(out string) map[string]string {
	blocks := make(map[string]string)
	for _, b := range strings.Split("\n"+out, "\n=== ")[1:] {
		if id, _, ok := strings.Cut(b, ":"); ok {
			blocks[id] = strings.TrimRight("=== "+b, "\n")
		}
	}
	return blocks
}

// TestDelxSmoke builds the experiment driver and runs every deterministic
// experiment end to end, checking each block against the committed golden.
func TestDelxSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildDelx(t, t.TempDir())

	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("delx -list: %v\n%s", err, out)
	}
	for _, id := range goldenIDs {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list missing %q:\n%s", id, out)
		}
	}

	out, err = exec.Command(bin, goldenIDs...).Output()
	if err != nil {
		t.Fatalf("delx %s: %v\n%s", strings.Join(goldenIDs, " "), err, out)
	}
	golden, err := os.ReadFile(filepath.Join(delxRepoRoot(t), "docs", "delx-output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, want := delxBlocks(string(out)), delxBlocks(string(golden))
	for _, id := range goldenIDs {
		if want[id] == "" {
			t.Errorf("%s: no block in docs/delx-output.txt", id)
		} else if got[id] != want[id] {
			t.Errorf("%s differs from docs/delx-output.txt:\n got:\n%s\nwant:\n%s", id, got[id], want[id])
		}
	}
}

// TestDelxUnknownExperiment checks the error path exits nonzero.
func TestDelxUnknownExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildDelx(t, t.TempDir())
	out, err := exec.Command(bin, "no-such-experiment").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown experiment exited 0:\n%s", out)
	}
}
