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
)

// TestDocsReferToRealThings holds the prose to the code: every back-ticked
// test, benchmark or fuzz target named in README.md, DESIGN.md and docs/*.md
// must be a func some Go file of the repository defines, and every
// back-ticked Stats.X (or Stats.X.Y) must be a field or method of
// runtime.Stats (of value.BlockStats for Stats.Blocks.Y). A name may also
// be the prefix of a family, as BenchmarkTreeWalks is of
// BenchmarkTreeWalksSequential.
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
