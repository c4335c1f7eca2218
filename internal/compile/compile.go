// Package compile drives the Delirium compiler pipeline — the six passes of
// Table 1: lexing, parsing, macro expansion, environment analysis,
// optimization, and graph conversion — with per-pass timing.
//
// This is the sequential driver: each pass runs over the whole program. The
// parallel compiler of case study #2 (§6) is internal/selfcomp, which runs
// the same passes as Delirium operators under a fork/join coordination
// program; its output is identical to this driver's.
package compile

import (
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
	// MemPlan runs the memory-plan pass (opt.PlanMemory) over the linked
	// graph: static ownership facts that let the runtime elide refcount
	// traffic and guarantee in-place destructive updates. Off by default;
	// planned and unplanned programs produce bit-identical results.
	MemPlan bool
	// Fuse runs the operator-fusion pass (opt.FuseGraph) over the linked
	// graph: single-consumer chains collapse into supernodes dispatched
	// once, and static bottom-level priorities order the ready queues. Off
	// by default; fused and unfused programs produce bit-identical results.
	Fuse bool
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
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
}

// TotalNanos sums every pass.
func (r *Result) TotalNanos() int64 {
	var total int64
	for _, p := range r.Passes {
		total += p.Nanos
	}
	return total
}

// timePass runs fn, appending its duration to r.
func timePass(r *Result, name string, fn func()) {
	t0 := time.Now()
	fn()
	r.Passes = append(r.Passes, PassTime{Name: name, Nanos: int64(time.Since(t0))})
}

// Compile compiles one Delirium source file.
func Compile(file, src string, opts Options) (*Result, error) {
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
			res.FusePlan = opt.FuseGraph(g)
		})
	}
	res.Program = g
	res.Warnings = diags.Warnings()
	return res, nil
}
