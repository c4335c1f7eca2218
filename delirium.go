// Package delirium is a Go implementation of Delirium, the embedding
// coordination language of Lucco and Sharp (Supercomputing 1990).
//
// A parallel program is written as a compact Delirium coordination
// framework — a single-assignment functional notation with six constructs —
// into which sequential sub-computations called operators are embedded.
// Operators are ordinary Go functions registered by name; the only extra
// requirement is that an operator declares which of its arguments it might
// destructively modify. The run-time system enforces determinism with
// reference-counted shared memory blocks: a block is mutated in place only
// when the operator holds the sole reference, and copied otherwise.
//
// Programs compile to coordination graphs (templates) and execute on
// either a pool of worker goroutines (Real mode) or a deterministic
// simulated multiprocessor with a virtual clock and configurable machine
// profile (Simulated mode), including the three-level priority ready queue
// and tail-call activation reuse of the paper's run-time system.
//
// A minimal session:
//
//	reg := delirium.NewRegistry(delirium.Builtins())
//	reg.MustRegister(&delirium.Operator{
//	    Name: "convolve", Arity: 2,
//	    Fn: func(ctx delirium.Context, args []delirium.Value) (delirium.Value, error) {
//	        ...
//	    },
//	})
//	prog, err := delirium.Compile("conv.dlr", src, delirium.CompileOptions{Registry: reg})
//	out, err := prog.Run(delirium.RunConfig{Workers: 4})
package delirium

import (
	"context"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/operator"
	"repro/internal/prelude"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/value"
)

// Prelude returns a small standard library written in Delirium itself:
// iota, parmap, parreduce, parfilter, and partabulate — dynamic-width coordination
// structures built from first-class functions and divide-and-conquer
// recursion (the answer to the paper's §9.2 "parallelism is hard-wired"
// critique). Prepend it to a program's source before Compile.
func Prelude() string { return prelude.Source() }

// Re-exported value types: the data exchanged between operators.
type (
	// Value is any Delirium runtime value.
	Value = value.Value
	// Int, Float, Str, Bool, and Null are the atomic values.
	Int   = value.Int
	Float = value.Float
	Str   = value.Str
	Bool  = value.Bool
	Null  = value.Null
	// Tuple is a multiple-value package.
	Tuple = value.Tuple
	// Block is a reference-counted shared memory block.
	Block = value.Block
	// BlockData is a block's payload contract.
	BlockData = value.BlockData
	// Opaque adapts application payloads to BlockData.
	Opaque = value.Opaque
	// FloatGrid is a dense 2-D float payload.
	FloatGrid = value.FloatGrid
	// BlockStats aggregates reference-count traffic.
	BlockStats = value.BlockStats
)

// Re-exported operator types: the embedding side.
type (
	// Operator is a registered sequential sub-computation.
	Operator = operator.Operator
	// Registry maps operator names to implementations.
	Registry = operator.Registry
	// Context gives executing operators access to run-time services.
	Context = operator.Context
)

// Variadic marks an operator accepting any number of arguments.
const Variadic = operator.Variadic

// NewBlock wraps data in a fresh exclusive block.
func NewBlock(data BlockData) *Block { return value.NewBlock(data) }

// Builtins returns a registry preloaded with the standard operators
// (arithmetic, comparison, logic, tuples, merge).
func Builtins() *Registry { return operator.Builtins() }

// NewRegistry returns an empty registry chained to parent (nil for none).
func NewRegistry(parent *Registry) *Registry { return operator.NewRegistry(parent) }

// Re-exported execution types.
type (
	// Engine executes one compiled program. An engine is reusable: Reset
	// returns a finished engine to runnable without discarding its warmed
	// activation pools, block free lists, or scheduler, and RunMany batches
	// invocations through one engine, Resetting it between them.
	Engine = runtime.Engine
	// RunResult is one invocation's outcome in a RunMany batch.
	RunResult = runtime.RunResult
	// RunConfig configures an execution (workers, mode, machine profile,
	// timing, affinity, priority ablation).
	RunConfig = runtime.Config
	// Stats aggregates execution counters.
	Stats = runtime.Stats
	// TimingLog is the node timing tool's output.
	TimingLog = trace.TimingLog
	// Trace is the structured execution trace recorded when
	// RunConfig.Trace is set; export it with WriteChrome or analyze it
	// with CriticalPath.
	Trace = trace.Trace
	// TraceEvent is one recorded trace event.
	TraceEvent = trace.Event
	// CritPath is the critical-path analysis of a Trace: the longest
	// weighted dependency chain, per-operator slack, and the imbalance
	// verdict.
	CritPath = trace.CritPath
	// CritOp aggregates one operator's relation to the critical path.
	CritOp = trace.CritOp
	// CritStep is one node execution on the critical path.
	CritStep = trace.CritStep
	// MachineProfile describes a simulated machine.
	MachineProfile = machine.Profile
	// AffinityPolicy selects the simulated scheduler's §9.3 policy.
	AffinityPolicy = runtime.AffinityPolicy
	// RunError is the structured error a failed run returns: failure kind,
	// failed operator, activation path, attempt count, and captured panic
	// stack. Unwrap with errors.As, or errors.Is against context.Canceled.
	RunError = runtime.RunError
	// FailKind classifies a RunError.
	FailKind = runtime.FailKind
	// RetryPolicy configures deterministic operator retry
	// (RunConfig.Retry).
	RetryPolicy = runtime.RetryPolicy
	// Fault arms one injected failure; FaultPlan is a deterministic
	// schedule of them (RunConfig.Faults); FaultKind selects panic, error,
	// or delay.
	Fault     = runtime.Fault
	FaultPlan = runtime.FaultPlan
	FaultKind = runtime.FaultKind
)

// Failure kinds reported by RunError.
const (
	FailError    = runtime.FailError
	FailPanic    = runtime.FailPanic
	FailTimeout  = runtime.FailTimeout
	FailCanceled = runtime.FailCanceled
	FailDeadlock = runtime.FailDeadlock
	FailBudget   = runtime.FailBudget
)

// Fault kinds for injection plans.
const (
	FaultError = runtime.FaultError
	FaultPanic = runtime.FaultPanic
	FaultDelay = runtime.FaultDelay
)

// NewFaultPlan builds a deterministic fault-injection plan.
func NewFaultPlan(faults ...Fault) *FaultPlan { return runtime.NewFaultPlan(faults...) }

// KillOnce returns a plan failing the first execution of each named
// operator.
func KillOnce(kind FaultKind, ops ...string) *FaultPlan { return runtime.KillOnce(kind, ops...) }

// SeededFaultPlan derives a deterministic plan from a seed: one fault per
// named operator at a pseudo-random execution index in [1, maxExec].
func SeededFaultPlan(seed int64, ops []string, maxExec int64) *FaultPlan {
	return runtime.SeededFaultPlan(seed, ops, maxExec)
}

// Execution modes and affinity policies.
const (
	// Real executes on worker goroutines.
	Real = runtime.Real
	// Simulated executes deterministically on a virtual machine profile.
	Simulated = runtime.Simulated

	// AffinityNone, AffinityOperator, and AffinityData select the
	// simulated scheduler's placement policy.
	AffinityNone     = runtime.AffinityNone
	AffinityOperator = runtime.AffinityOperator
	AffinityData     = runtime.AffinityData
)

// Machine profiles of the paper's four platforms plus a workstation.
var (
	CrayYMP      = machine.CrayYMP
	Cray2        = machine.Cray2
	Sequent      = machine.Sequent
	Butterfly    = machine.Butterfly
	Uniprocessor = machine.Uniprocessor
)

// CompileOptions configures compilation.
type CompileOptions struct {
	// Registry supplies the program's operators; nil selects Builtins.
	Registry *Registry
	// OptLevel: 0 default (full), -1 none, 1 local only, 2 full.
	OptLevel int
}

// PassTime reports one compiler pass's wall time.
type PassTime = compile.PassTime

// Program is a compiled Delirium program ready for execution.
type Program struct {
	res *compile.Result
}

// Compile compiles Delirium source text. The file name is used in
// diagnostics only.
func Compile(file, src string, opts CompileOptions) (*Program, error) {
	res, err := compile.Compile(file, src, compile.Options{
		Registry: opts.Registry,
		OptLevel: opts.OptLevel,
	})
	if err != nil {
		return nil, err
	}
	return &Program{res: res}, nil
}

// Passes returns per-pass compile times in pipeline order.
func (p *Program) Passes() []PassTime { return p.res.Passes }

// NodeCount returns the total coordination-graph node count.
func (p *Program) NodeCount() int { return p.res.Program.NodeCount() }

// Dot renders every template in Graphviz DOT format — the coordination
// framework visualization tool.
func (p *Program) Dot() string { return p.res.Program.Dot() }

// Graph exposes the underlying coordination-graph program for tooling.
func (p *Program) Graph() *graph.Program { return p.res.Program }

// NewEngine prepares an execution of the program. An engine runs once per
// Run; Reset it between runs (or use RunMany) to reuse its warmed state.
func (p *Program) NewEngine(cfg RunConfig) *Engine {
	return runtime.New(p.res.Program, cfg)
}

// Run compiles-and-goes: executes main with the given arguments under cfg
// and returns the result value.
func (p *Program) Run(cfg RunConfig, args ...Value) (Value, error) {
	return p.NewEngine(cfg).Run(args...)
}

// RunContext executes like Run under a context: cancellation (or the
// context deadline) stops the run at the next operator boundary, drains
// the schedulers, releases all live block references, and returns a
// RunError that unwraps to the context's error. Bound individual operator
// executions with RunConfig.OpTimeout or Operator.Timeout — Go cannot
// preempt an operator already inside embedded code.
func (p *Program) RunContext(ctx context.Context, cfg RunConfig, args ...Value) (Value, error) {
	return p.NewEngine(cfg).RunContext(ctx, args...)
}

// RunMany executes main once per argument list in batch through one reused
// engine: activation pools, block free lists, and the work-stealing
// scheduler warm up on the first invocation and serve the rest — the
// repeated-run fast path for serving the same compiled graph many times.
// Each invocation keeps single-run
// semantics (individually deterministic, cancellable, retryable, and
// fault-injected); a failed invocation records its error in its RunResult
// slot and the batch continues.
func (p *Program) RunMany(cfg RunConfig, batch [][]Value) ([]RunResult, error) {
	return p.NewEngine(cfg).RunMany(context.Background(), batch)
}

// RunManyContext is RunMany under a context: once ctx dies, the in-flight
// invocation stops at the next operator boundary and the remaining
// invocations fail with FailCanceled without running.
func (p *Program) RunManyContext(ctx context.Context, cfg RunConfig, batch [][]Value) ([]RunResult, error) {
	return p.NewEngine(cfg).RunMany(ctx, batch)
}

// RunStats executes like Run but also returns the engine's statistics and
// timing log (nil unless cfg.Timing). Stats and timing are returned even
// when the run fails — counters and per-node timings are most needed when
// diagnosing a failed run — so check err before trusting the value.
func (p *Program) RunStats(cfg RunConfig, args ...Value) (Value, *Stats, *TimingLog, error) {
	e := p.NewEngine(cfg)
	v, err := e.Run(args...)
	return v, e.Stats(), e.Timing(), err
}

// RunTraced executes like Run with structured tracing forced on and returns
// the recorded trace alongside the result. Export the trace with
// Trace.WriteChrome (view at ui.perfetto.dev) or analyze it with
// Trace.CriticalPath. A failed run returns the partial trace recorded up to
// the failure alongside the RunError — exactly the trace worth exporting.
func (p *Program) RunTraced(cfg RunConfig, args ...Value) (Value, *Trace, error) {
	cfg.Trace = true
	e := p.NewEngine(cfg)
	v, err := e.Run(args...)
	return v, e.Trace(), err
}

// Eval compiles and runs a single Delirium expression against the builtin
// operators (plus the prelude's coordination structures) — a convenience
// for exploration and tests:
//
//	v, err := delirium.Eval("parreduce(addf, 0, parmap(sq, iota(10)))")
//
// is not valid (sq/addf undefined), but
//
//	v, err := delirium.Eval("add(mul(6, 7), tuple_len(<1, 2>))")
//
// returns Int(44). The expression runs on the real executor with two
// workers and a bounded operation budget.
func Eval(expr string) (Value, error) {
	src := prelude.Source() + "\nmain()\n  " + expr + "\n"
	prog, err := Compile("<eval>", src, CompileOptions{})
	if err != nil {
		return nil, err
	}
	return prog.Run(RunConfig{Mode: Real, Workers: 2, MaxOps: 100_000_000})
}
