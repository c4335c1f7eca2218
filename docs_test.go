package delirium_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/runtime"
	"repro/internal/value"
)

var (
	docSpan     = regexp.MustCompile("`([^`\n]+)`")
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	docStats    = regexp.MustCompile(`\bStats\.(\w+)(?:\.(\w+))?`)
	goTestFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	docPath     = regexp.MustCompile(`(?:^|[\s(=])(?:\./)?((?:internal|cmd|examples|programs|testdata|docs)/[\w./*<>-]*)`)
	docCLI      = regexp.MustCompile(`^(delx|delprof|delirium|delc)\s+(.*)$`)
	goFlagDef   = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|String|Duration|Float64)(?:Var)?\((?:&\w+, )?"([\w-]+)"`)
	delxID      = regexp.MustCompile(`(?m)^\s*\{"(\w+)", "`)
)

// TestDocsReferToRealThings holds the prose to the code: every back-ticked
// test, benchmark or fuzz target named in README.md, DESIGN.md and docs/*.md
// must be a func some Go file of the repository defines, and every
// back-ticked Stats.X (or Stats.X.Y) must be a field or method of
// runtime.Stats (of value.BlockStats for Stats.Blocks.Y). A name may also
// be the prefix of a family, as BenchmarkTreeWalks is of
// BenchmarkTreeWalksSequential. Every back-ticked repository path —
// internal/…, cmd/…, examples/…, programs/…, testdata/… or docs/… — must
// exist; a pattern with * must match something, a Go package pattern's
// /... names its directory, and a path with a <placeholder> is a template,
// not a path. A back-ticked command line of a tool names only real things
// too: in `delx <id>` the id is an experiment of cmd/delx/main.go or
// `call`, and every -flag of a `delprof`, `delirium`, `delc` or `delx`
// line is one the tool's package defines.
func TestDocsReferToRealThings(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, more...)

	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range goTestFunc.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(funcs)
	defined := func(name string) bool {
		i := sort.SearchStrings(funcs, name)
		return i < len(funcs) && strings.HasPrefix(funcs[i], name)
	}
	member := func(typ reflect.Type, name string) bool {
		if _, ok := typ.FieldByName(name); ok {
			return true
		}
		_, ok := reflect.PointerTo(typ).MethodByName(name)
		return ok
	}
	flags := make(map[string]map[string]bool) // tool -> flags it defines
	for _, tool := range []string{"delx", "delprof", "delirium", "delc"} {
		flags[tool] = make(map[string]bool)
		files, _ := filepath.Glob(filepath.Join("cmd", tool, "*.go"))
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range goFlagDef.FindAllStringSubmatch(string(src), -1) {
				flags[tool][m[1]] = true
			}
		}
	}
	delxSrc, err := os.ReadFile("cmd/delx/main.go")
	if err != nil {
		t.Fatal(err)
	}
	experimentIDs := map[string]bool{"call": true}
	for _, m := range delxID.FindAllStringSubmatch(string(delxSrc), -1) {
		experimentIDs[m[1]] = true
	}
	statsType := reflect.TypeOf(runtime.Stats{})
	blockType := reflect.TypeOf(value.BlockStats{})

	checked := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpan.FindAllStringSubmatch(string(text), -1) {
			for _, name := range docTestName.FindAllString(span[1], -1) {
				checked++
				if !defined(name) {
					t.Errorf("%s: `%s` names %s, which no func defines", doc, span[1], name)
				}
			}
			for _, m := range docPath.FindAllStringSubmatch(span[1], -1) {
				path := strings.TrimSuffix(strings.TrimRight(m[1], "/"), "/...")
				if strings.Contains(path, "<") {
					continue
				}
				checked++
				if matches, _ := filepath.Glob(path); len(matches) == 0 {
					t.Errorf("%s: `%s` names %s, which does not exist", doc, span[1], path)
				}
			}
			if m := docCLI.FindStringSubmatch(span[1]); m != nil {
				tool, args := m[1], strings.Fields(m[2])
				if tool == "delx" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
					checked++
					if !experimentIDs[args[0]] {
						t.Errorf("%s: `%s` names experiment %s, which cmd/delx/main.go lacks", doc, span[1], args[0])
					}
				}
				for _, arg := range args {
					if !strings.HasPrefix(arg, "-") {
						continue
					}
					name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					checked++
					if !flags[tool][name] {
						t.Errorf("%s: `%s` names flag -%s, which %s does not define", doc, span[1], name, tool)
					}
				}
			}
			for _, m := range docStats.FindAllStringSubmatch(span[1], -1) {
				checked++
				switch {
				case !member(statsType, m[1]):
					t.Errorf("%s: `%s` names Stats.%s, which runtime.Stats lacks", doc, span[1], m[1])
				case m[1] == "Blocks" && m[2] != "" && !member(blockType, m[2]):
					t.Errorf("%s: `%s` names Stats.Blocks.%s, which value.BlockStats lacks", doc, span[1], m[2])
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no back-ticked names found; the extraction is broken")
	}
}
