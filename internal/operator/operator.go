// Package operator defines the sequential operators that Delirium embeds in
// a coordination framework, and the registry the compiler and runtime look
// them up in.
//
// Operators are the paper's encapsulated sub-computations (§8, rule 3): they
// have a unique, well-defined entry and exit point, and the only extra
// coding requirement is that an operator states explicitly whether it might
// destructively modify each of its arguments (§2.1). The run-time system
// uses the annotation to enforce determinism via reference counts and
// copy-on-write.
//
// In the paper operators are C or Fortran routines; here they are Go
// functions. The coordination model treats the host language as
// interchangeable, so nothing else changes.
package operator

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/value"
)

// Context gives an executing operator access to run-time services: work
// charging for the simulated machines, block allocation accounting, and the
// identity of the executing processor (used by affinity experiments).
type Context interface {
	// Charge records abstract work units for this operator execution. The
	// simulated executor converts charged work into virtual time; the real
	// executor only accumulates it for reporting.
	Charge(units int64)
	// BlockStats returns the accounting sink for block allocation, or nil.
	BlockStats() *value.BlockStats
	// Processor returns the executing processor's id (0-based).
	Processor() int
	// Pool returns the executing worker's block free list: every engine
	// worker has one, and a block whose last reference is released on the
	// worker hands its payload to it. Allocate block payloads through it
	// (ctx.Pool().Opaque, Floats, Ints, Grid). It is nil outside an engine
	// worker; value.BlockPool's allocation helpers are safe on a nil
	// receiver, so operators call through unconditionally.
	//
	// The ownership rule: a payload belongs to one block. Once that block's
	// last reference is released on a worker, its storage may be handed to
	// the next ctx.Pool() allocation. So neither an operator nor the host
	// may keep a payload, or a slice of one, from a block it gave away.
	Pool() *value.BlockPool
}

// Func is the Go entry point of an operator. args holds exactly Arity
// values (or any number for variadic operators). Destructive arguments have
// already been made exclusive by the runtime, so the operator may mutate
// their blocks in place.
type Func func(ctx Context, args []value.Value) (value.Value, error)

// Variadic marks an operator accepting any number of arguments.
const Variadic = -1

// Operator describes one registered sequential sub-computation.
type Operator struct {
	// Name is the identifier Delirium programs call.
	Name string
	// Arity is the expected argument count, or Variadic.
	Arity int
	// Destructive marks, per argument, whether the operator might
	// destructively modify that argument's block (§2.1). For variadic
	// operators a single entry applies to every argument.
	Destructive []bool
	// Pure operators have no side effects and may be folded at compile time
	// when every argument is a constant.
	Pure bool
	// Fresh declares that every block in the operator's result is newly
	// allocated by the operator itself (or passed through from an argument
	// declared Destructive, which the runtime hands over exclusively) —
	// never a shared alias of a non-destructive argument. The memory-plan
	// pass uses the annotation to prove outputs exclusively owned even when
	// an input is shared; the runtime verifies the claim after each planned
	// execution, so a wrong annotation costs a copy, not determinism.
	Fresh bool
	// Retryable declares that a failed execution may be re-run from its
	// inputs. The §8 contention protocol guarantees the inputs themselves:
	// the runtime snapshots destructively-declared arguments before a
	// retryable attempt, so a retry always sees pristine blocks. The
	// annotation is therefore about effects *outside* the block protocol —
	// an operator that mutates shared host state mid-body must only be
	// marked Retryable when a failure cannot leave that state half-updated
	// (e.g. failures occur only at entry, or the body is idempotent).
	Retryable bool
	// Timeout bounds one execution of this operator; zero defers to
	// Config.OpTimeout (and a negative value disables the bound for this
	// operator even when a global one is set).
	Timeout time.Duration
	// Fn is the implementation.
	Fn Func
}

// CanRetry reports whether a failed execution may be re-run: explicitly
// Retryable operators, plus Pure operators (no side effects means re-running
// is always safe).
func (op *Operator) CanRetry() bool { return op.Retryable || op.Pure }

// MayModify reports whether argument i is annotated destructive.
func (op *Operator) MayModify(i int) bool {
	if len(op.Destructive) == 0 {
		return false
	}
	if op.Arity == Variadic {
		return op.Destructive[0]
	}
	if i < 0 || i >= len(op.Destructive) {
		return false
	}
	return op.Destructive[i]
}

// AcceptsArgs reports whether an n-argument call is arity-correct.
func (op *Operator) AcceptsArgs(n int) bool {
	return op.Arity == Variadic || op.Arity == n
}

// Registry maps operator names to implementations. A registry may chain to
// a parent (the builtin registry), letting applications add their operators
// without copying. Registration is safe for concurrent use; lookups may run
// concurrently with each other but not with registration.
type Registry struct {
	mu     sync.RWMutex
	parent *Registry
	ops    map[string]*Operator
}

// NewRegistry returns an empty registry chained to parent (nil for none).
func NewRegistry(parent *Registry) *Registry {
	return &Registry{parent: parent, ops: make(map[string]*Operator)}
}

// Register adds an operator. It is an error to register a nil operator, an
// operator with an empty name, a duplicate name in the same registry, or a
// destructive annotation whose length contradicts the arity.
func (r *Registry) Register(op *Operator) error {
	if op == nil || op.Name == "" {
		return fmt.Errorf("operator: registering nil or unnamed operator")
	}
	if op.Fn == nil {
		return fmt.Errorf("operator %q: nil implementation", op.Name)
	}
	if op.Arity != Variadic && op.Arity < 0 {
		return fmt.Errorf("operator %q: invalid arity %d", op.Name, op.Arity)
	}
	if len(op.Destructive) != 0 {
		switch {
		case op.Arity == Variadic && len(op.Destructive) != 1:
			return fmt.Errorf("operator %q: variadic operators take a single destructive annotation", op.Name)
		case op.Arity != Variadic && len(op.Destructive) != op.Arity:
			return fmt.Errorf("operator %q: %d destructive annotations for arity %d",
				op.Name, len(op.Destructive), op.Arity)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ops[op.Name]; dup {
		return fmt.Errorf("operator %q: already registered", op.Name)
	}
	r.ops[op.Name] = op
	return nil
}

// MustRegister registers or panics; for package-level builtin tables.
func (r *Registry) MustRegister(op *Operator) {
	if err := r.Register(op); err != nil {
		panic(err)
	}
}

// Lookup finds an operator by name, consulting parents.
func (r *Registry) Lookup(name string) (*Operator, bool) {
	r.mu.RLock()
	op, ok := r.ops[name]
	r.mu.RUnlock()
	if ok {
		return op, true
	}
	if r.parent != nil {
		return r.parent.Lookup(name)
	}
	return nil, false
}

// Names returns every registered name (including parents), sorted.
func (r *Registry) Names() []string {
	seen := make(map[string]bool)
	for reg := r; reg != nil; reg = reg.parent {
		reg.mu.RLock()
		for name := range reg.ops {
			seen[name] = true
		}
		reg.mu.RUnlock()
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nopContext satisfies Context for compile-time constant folding, where no
// machine is executing.
type nopContext struct{}

func (nopContext) Charge(int64)                  {}
func (nopContext) BlockStats() *value.BlockStats { return nil }
func (nopContext) Processor() int                { return 0 }
func (nopContext) Pool() *value.BlockPool        { return nil }

// NopContext is a Context that discards charges; the optimizer uses it to
// fold pure operators over constant arguments.
var NopContext Context = nopContext{}

// Fold evaluates a pure operator over constant arguments at compile time.
// It returns false when the operator is impure, the arity mismatches, or
// evaluation fails (a fold must never report an error the program would not
// hit at run time, so failures simply decline to fold).
func Fold(op *Operator, args []value.Value) (value.Value, bool) {
	if op == nil || !op.Pure || !op.AcceptsArgs(len(args)) {
		return nil, false
	}
	v, err := op.Fn(NopContext, args)
	if err != nil || v == nil {
		return nil, false
	}
	return v, true
}
