// Package compile drives the Delirium compiler pipeline — the six passes of
// Table 1: lexing, parsing, macro expansion, environment analysis,
// optimization, and graph conversion — with per-pass timing.
//
// Two drivers share the passes. The sequential driver runs each pass over
// the whole program. The parallel driver reproduces case study #2 (§6): for
// each pass after lexing, a sequential crown step splits the program into
// per-function subtrees, a pool of workers processes the subtrees
// independently, and a merge step reassembles the result ("merging is
// implicit and involves no actual work other than returning the pointer").
// Lexing is inherently serial, which is why Table 1 shows it unchanged
// between the sequential and parallel compilers.
package compile

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/lexer"
	"repro/internal/macro"
	"repro/internal/operator"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/source"
)

// Pass names, in pipeline order, exactly as Table 1 lists them.
var PassNames = []string{
	"Lexing", "Parsing", "Macro Expansion", "Env Analysis", "Optimization", "Graph Conversion",
}

// Options configures a compilation.
type Options struct {
	// Registry supplies the operators the program may call; nil selects
	// the builtin registry.
	Registry *operator.Registry
	// OptLevel: 0 none, 1 local optimizations, 2 adds inlining (default).
	OptLevel int
	// InlineBudget caps inline-candidate size (0 = optimizer default).
	InlineBudget int
	// Workers > 1 selects the parallel compiler with that many workers.
	Workers int
	// MemPlan runs the memory-plan pass (opt.PlanMemory) over the linked
	// graph: static ownership facts that let the runtime elide refcount
	// traffic, guarantee in-place destructive updates, and recycle block
	// payloads. Off by default; planned and unplanned programs produce
	// bit-identical results.
	MemPlan bool
	// Fuse runs the operator-fusion pass (opt.FuseGraph) over the linked
	// graph: single-consumer chains collapse into supernodes dispatched
	// once, and static bottom-level priorities order the ready queues. Off
	// by default; fused and unfused programs produce bit-identical results.
	Fuse bool
	// FuseProfile optionally seeds fusion's operator weights with mean
	// execution costs from a delprof run (operator name -> mean ticks/ns).
	// Missing entries fall back to unit weight.
	FuseProfile map[string]int64
	// Affinity runs the affinity-plan pass (opt.PlanAffinity) after fusion:
	// every node gets an advisory preferred-producer edge and a weight tier,
	// which the Real executor (under Config.AffinityHints) turns into
	// producer-preferred dispatch, and the Simulated executor into
	// hint-driven placement. Implies Fuse, since
	// the tiers come from fusion's bottom levels (and composes with MemPlan,
	// whose ownership facts pick the block-carrying edges). Hints are
	// advisory-only: results are bit-identical with the pass on or off.
	Affinity bool
}

func (o Options) registry() *operator.Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return operator.Builtins()
}

func (o Options) optLevel() int {
	if o.OptLevel == 0 {
		return 2
	}
	if o.OptLevel < 0 {
		return 0
	}
	return o.OptLevel
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// PassTime records one pass's wall-clock duration.
type PassTime struct {
	Name  string
	Nanos int64
}

// Result is a finished compilation.
type Result struct {
	// Program is the linked, validated coordination-graph program.
	Program *graph.Program
	// Info is the environment-analysis result (for tooling).
	Info *sema.Info
	// OptStats counts optimizer transformations.
	OptStats *opt.Stats
	// Passes lists per-pass wall times in pipeline order.
	Passes []PassTime
	// Warnings carries non-fatal diagnostics (e.g. unused parameters).
	Warnings []string
	// MemPlan is the memory-plan report, nil unless Options.MemPlan was set.
	MemPlan *opt.MemPlan
	// FusePlan is the operator-fusion report, nil unless Options.Fuse was set.
	FusePlan *opt.FusePlan
	// AffinityPlan is the affinity-hint report, nil unless Options.Affinity
	// was set.
	AffinityPlan *opt.AffinityPlan
}

// PassNanos returns the duration of the named pass (0 if absent).
func (r *Result) PassNanos(name string) int64 {
	for _, p := range r.Passes {
		if p.Name == name {
			return p.Nanos
		}
	}
	return 0
}

// TotalNanos sums every pass.
func (r *Result) TotalNanos() int64 {
	var total int64
	for _, p := range r.Passes {
		total += p.Nanos
	}
	return total
}

// Compile compiles one Delirium source file. With Options.Workers > 1 the
// parallel driver is used; the output is identical either way.
func Compile(file, src string, opts Options) (*Result, error) {
	if opts.Affinity {
		opts.Fuse = true
	}
	if opts.workers() > 1 {
		return compileParallel(file, src, opts)
	}
	return compileSequential(file, src, opts)
}

// timePass runs fn, appending its duration to r.
func timePass(r *Result, name string, fn func()) {
	t0 := time.Now()
	fn()
	r.Passes = append(r.Passes, PassTime{Name: name, Nanos: int64(time.Since(t0))})
}

func compileSequential(file, src string, opts Options) (*Result, error) {
	reg := opts.registry()
	res := &Result{}
	var diags source.DiagList

	var toks []lexer.Token
	timePass(res, "Lexing", func() {
		toks = lexer.New(file, src, &diags).ScanAll()
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}

	var prog *ast.Program
	timePass(res, "Parsing", func() {
		prog = parser.ParseTokens(file, toks, &diags)
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}

	var expanded *ast.Program
	timePass(res, "Macro Expansion", func() {
		table := macro.BuildTable(prog.Defines, &diags)
		expanded = &ast.Program{File: prog.File}
		for _, f := range prog.Funcs {
			expanded.Funcs = append(expanded.Funcs, table.ExpandFunc(f, &diags))
		}
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}

	var info *sema.Info
	timePass(res, "Env Analysis", func() {
		info = sema.Analyze(expanded, reg, &diags)
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}
	res.Info = info

	timePass(res, "Optimization", func() {
		res.OptStats = opt.Optimize(info, opt.Options{Level: opts.optLevel(), InlineBudget: opts.InlineBudget})
	})

	var g *graph.Program
	timePass(res, "Graph Conversion", func() {
		g = graph.Build(info, &diags)
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}
	if opts.MemPlan {
		timePass(res, "Memory Plan", func() {
			res.MemPlan = opt.PlanMemory(g)
		})
	}
	if opts.Fuse {
		timePass(res, "Fusion", func() {
			res.FusePlan = opt.FuseGraph(g, opts.FuseProfile)
		})
	}
	if opts.Affinity {
		timePass(res, "Affinity Plan", func() {
			res.AffinityPlan = opt.PlanAffinity(g)
		})
	}
	res.Program = g
	res.Warnings = collectWarnings(&diags)
	appendFuseWarnings(res)
	return res, nil
}

// appendFuseWarnings surfaces fusion-plan diagnostics — profile keys that
// matched no operator — as ordinary compile warnings, so a stale or
// mistargeted profile is visible wherever warnings are printed.
func appendFuseWarnings(res *Result) {
	if res.FusePlan == nil {
		return
	}
	if keys := res.FusePlan.UnmatchedProfileKeys; len(keys) > 0 {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"fusion profile: %d key(s) matched no operator (unmatched operators use unit weight): %s",
			len(keys), strings.Join(keys, ", ")))
	}
}

// collectWarnings extracts warning-severity diagnostics as rendered lines.
func collectWarnings(diags *source.DiagList) []string {
	var out []string
	for _, d := range diags.Diags() {
		if d.Severity == source.Warning {
			out = append(out, d.Error())
		}
	}
	return out
}

// parallelFor runs fn(i) for i in [0, n) on the given number of workers.
// Each invocation gets its own index so outputs merge deterministically.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mergeDiags folds per-worker diagnostic lists into diags in index order,
// restoring the sequential compiler's deterministic message order.
func mergeDiags(diags *source.DiagList, parts []source.DiagList) {
	for i := range parts {
		diags.Merge(&parts[i])
	}
}

func compileParallel(file, src string, opts Options) (*Result, error) {
	reg := opts.registry()
	workers := opts.workers()
	res := &Result{}
	var diags source.DiagList

	// Lexing: inherently sequential (Table 1: unchanged at n=3).
	var toks []lexer.Token
	timePass(res, "Lexing", func() {
		toks = lexer.New(file, src, &diags).ScanAll()
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}

	// Parsing: crown split at top-level boundaries, chunks parsed
	// independently, merged in order.
	var prog *ast.Program
	timePass(res, "Parsing", func() {
		chunks := parser.SplitTopLevel(toks)
		parts := make([]*ast.Program, len(chunks))
		partDiags := make([]source.DiagList, len(chunks))
		parallelFor(len(chunks), workers, func(i int) {
			parts[i] = parser.ParseChunk(file, chunks[i], &partDiags[i])
		})
		mergeDiags(&diags, partDiags)
		prog = &ast.Program{File: file}
		for _, p := range parts {
			prog.Defines = append(prog.Defines, p.Defines...)
			prog.Funcs = append(prog.Funcs, p.Funcs...)
		}
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}

	// Macro expansion: a top-down update walk — the table is the crown,
	// each function body expands independently.
	var expanded *ast.Program
	timePass(res, "Macro Expansion", func() {
		table := macro.BuildTable(prog.Defines, &diags)
		outs := make([]*ast.FuncDecl, len(prog.Funcs))
		partDiags := make([]source.DiagList, len(prog.Funcs))
		parallelFor(len(prog.Funcs), workers, func(i int) {
			outs[i] = table.ExpandFunc(prog.Funcs[i], &partDiags[i])
		})
		mergeDiags(&diags, partDiags)
		expanded = &ast.Program{File: prog.File, Funcs: outs}
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}

	// Environment analysis: an inherited-attribute walk — the global
	// environment is the crown, each function resolves independently.
	var info *sema.Info
	timePass(res, "Env Analysis", func() {
		crown := sema.Collect(expanded, reg, &diags)
		var decls []*ast.FuncDecl
		seen := make(map[string]bool)
		for _, f := range crown.Prog.Funcs {
			if !seen[f.Name] {
				seen[f.Name] = true
				decls = append(decls, f)
			}
		}
		units := make([]*sema.FuncUnit, len(decls))
		partDiags := make([]source.DiagList, len(decls))
		parallelFor(len(decls), workers, func(i int) {
			units[i] = sema.AnalyzeOne(crown, decls[i], &partDiags[i])
		})
		mergeDiags(&diags, partDiags)
		info = sema.Finalize(crown, units, &diags)
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}
	res.Info = info

	// Optimization: a synthesized-attribute walk per function; inlining
	// reads a frozen snapshot between the two local phases.
	timePass(res, "Optimization", func() {
		st := &opt.Stats{}
		oopts := opt.Options{Level: opts.optLevel(), InlineBudget: opts.InlineBudget}
		if oopts.Level > 0 {
			parallelFor(len(info.Order), workers, func(i int) {
				opt.OptimizeFunc(info, info.Funcs[info.Order[i]].Decl, oopts, st)
			})
			if oopts.Level >= 2 {
				snap := opt.Snapshot(info)
				parallelFor(len(info.Order), workers, func(i int) {
					f := info.Funcs[info.Order[i]].Decl
					opt.InlineFunc(info, f, snap, oopts, st)
					opt.OptimizeFunc(info, f, oopts, st)
				})
			}
		}
		res.OptStats = st
	})

	// Graph conversion: one template set per function, merged and linked.
	var g *graph.Program
	timePass(res, "Graph Conversion", func() {
		sets := make([][]*graph.Template, len(info.Order))
		partDiags := make([]source.DiagList, len(info.Order))
		parallelFor(len(info.Order), workers, func(i int) {
			sets[i] = graph.BuildFunc(info, info.Funcs[info.Order[i]].Decl, &partDiags[i])
		})
		mergeDiags(&diags, partDiags)
		g = &graph.Program{Templates: make(map[string]*graph.Template), Registry: reg}
		for _, set := range sets {
			for _, tmpl := range set {
				g.Templates[tmpl.Name] = tmpl
			}
		}
		graph.Link(g, &diags)
	})
	if err := diags.Err(); err != nil {
		return nil, err
	}
	if opts.MemPlan {
		// The plan is a whole-program fixpoint over the linked graph, so it
		// stays sequential even in the parallel driver.
		timePass(res, "Memory Plan", func() {
			res.MemPlan = opt.PlanMemory(g)
		})
	}
	if opts.Fuse {
		// Fusion walks the whole call graph for bottom levels, so it too
		// stays sequential in the parallel driver.
		timePass(res, "Fusion", func() {
			res.FusePlan = opt.FuseGraph(g, opts.FuseProfile)
		})
	}
	if opts.Affinity {
		timePass(res, "Affinity Plan", func() {
			res.AffinityPlan = opt.PlanAffinity(g)
		})
	}
	res.Program = g
	res.Warnings = collectWarnings(&diags)
	appendFuseWarnings(res)
	return res, nil
}

// Table renders the pass times of a sequential and a parallel compilation
// side by side in the format of Table 1.
func Table(seq, par *Result, workers int) string {
	out := fmt.Sprintf("%-18s %12s %16s\n", "Pass", "Sequential", fmt.Sprintf("Parallel (n=%d)", workers))
	for _, name := range PassNames {
		out += fmt.Sprintf("%-18s %9.1f ms %13.1f ms\n", name,
			float64(seq.PassNanos(name))/1e6, float64(par.PassNanos(name))/1e6)
	}
	out += fmt.Sprintf("%-18s %9.1f ms %13.1f ms\n", "Totals",
		float64(seq.TotalNanos())/1e6, float64(par.TotalNanos())/1e6)
	return out
}
