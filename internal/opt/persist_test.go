package opt_test

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/macro"
	"repro/internal/operator"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/runtime"
	"repro/internal/selfcomp"
	"repro/internal/sema"
	"repro/internal/source"
	"repro/internal/stress"
)

// TestOptimizeLeavesSnapshotUntouched checks that the AST is persistent
// after environment analysis (DESIGN decision 23). The inline snapshot
// shares every body with the functions it was taken from, so the snapshot
// stays what it was only if no later rewrite writes a node: not the local
// passes that replace the bodies, not the inliner's renaming of the callee
// copies it splices in, and not a lifted function's rewrites showing
// through the function it was lifted out of. Run it under -race as well:
// the parallel compiler's workers read the snapshot while they rewrite.
func TestOptimizeLeavesSnapshotUntouched(t *testing.T) {
	type program struct {
		name, src string
		reg       *operator.Registry
	}
	// In nested, g is lifted out of f and inlining rewrites g's body in
	// the inline phase, while f's snapshot still shows g's definition; h
	// is inlined with a binder the inline copy must rename.
	const nested = `sq(x) mul(x, x)
h(x) let y = mul(x, 3) in add(y, x)
f(p)
  let k = add(p, 1)
      g(v) add(sq(v), k)
  in g(p)
main() add(f(3), h(4))
`
	progs := []program{
		{"nested", nested, operator.Builtins()},
		{"gen-24", compile.Generate(24, 11), operator.Builtins()},
	}
	for seed := int64(1990); seed < 1994; seed++ {
		progs = append(progs, program{fmt.Sprintf("stress-%d", seed),
			stress.Generate(stress.GenConfig{Funcs: 16, Seed: seed}), stress.Operators()})
	}
	opts := opt.Options{Level: 2}
	for _, p := range progs {
		var diags source.DiagList
		prog := macro.ExpandProgram(parser.Parse("p.dlr", p.src, &diags), &diags)
		info := sema.Analyze(prog, p.reg, &diags)
		if err := diags.Err(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		st := &opt.Stats{}
		for _, name := range info.Order {
			opt.OptimizeFunc(info, info.Funcs[name].Decl, opts, st)
		}
		snap := opt.Snapshot(info)
		before := printSnapshot(snap)

		for _, name := range info.Order {
			opt.InlineFunc(info, info.Funcs[name].Decl, snap, opts, st)
			opt.OptimizeFunc(info, info.Funcs[name].Decl, opts, st)
		}
		if st.Inlined == 0 {
			t.Fatalf("%s: nothing was inlined; the test is vacuous", p.name)
		}
		check := func(stage string) bool {
			ok := true
			after := printSnapshot(snap)
			for name, want := range before {
				if after[name] != want {
					ok = false
					t.Errorf("%s: snapshot of %s changed %s:\nbefore:\n%s\nafter:\n%s",
						p.name, name, stage, want, after[name])
				}
			}
			return ok
		}
		if !check("in the inline phase") {
			continue
		}
		if _, err := selfcomp.Compile("p.dlr", p.src, p.reg, runtime.Real, 3); err != nil {
			t.Errorf("%s: selfcomp: %v", p.name, err)
		}
		check("while selfcomp ran")
	}
}

func printSnapshot(snap *opt.BodySnapshot) map[string]string {
	out := make(map[string]string)
	for name, d := range snap.Bodies() {
		out[name] = ast.Print(d.Body)
	}
	return out
}
