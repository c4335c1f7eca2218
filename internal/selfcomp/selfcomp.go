// Package selfcomp is the paper's case study #2 (§6): the Delirium
// compiler parallelized in Delirium itself. Every pass after lexing is a
// fork/join over three worker operators — the paper ran on three Sequent
// Symmetry processors — with a sequential crown step that splits the work
// and a join that merges it ("merging is implicit and involves no actual
// work other than returning the pointer").
//
// The coordination framework below is roughly 60 lines of Delirium; the
// operators in this file are the paper's "400 line auxiliary module that
// defines the operators", built on the same pass implementations the
// sequential driver in internal/compile uses, and producing the same graph
// and diagnostics. Running the framework on the simulated Sequent with one
// and with three processors regenerates Table 1 deterministically: lexing
// is unchanged, every other pass speeds up by 2–3x, and the total lands
// near the paper's 2.2x. The same framework runs on Real workers for the
// wall-clock variant.
//
// Work charging is calibrated so the sequential pass profile resembles
// Table 1's sequential column (lex:parse:macro:env:opt:graph close to
// 91:200:117:300:350:380); the parallel *structure* — what splits, what
// stays on the crown — is what the experiment actually measures.
package selfcomp

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/lexer"
	"repro/internal/macro"
	"repro/internal/operator"
	"repro/internal/opt"
	"repro/internal/sema"
	"repro/internal/source"
	"repro/internal/value"
)

// Ways is the fork width. Like the retina model's four-way splits, the
// width is hard-wired in the coordination program (§9.2 discusses this
// limitation); the paper used the Sequent's three processors.
const Ways = 3

// Per-unit work charges, calibrated to Table 1's sequential profile.
const (
	cLexTok   = 2  // per token, lexing
	cParseTok = 4  // per token, parsing
	cMacro    = 5  // per AST node, macro expansion
	cEnv      = 13 // per AST node, environment analysis
	cOptLocal = 7  // per AST node, optimization local phase
	cOptInl   = 8  // per AST node, inline phase
	cGraph    = 17 // per AST node, graph conversion
)

// state is the compilation in flight; it travels linearly between the
// split and join operators, while bite operators receive pieces holding
// disjoint portions of the work.
type state struct {
	file string
	src  string
	reg  *operator.Registry // registry the compiled program resolves against

	toks   []lexer.Token
	chunks [][]lexer.Token
	// chunkProgs[i] is the parse of chunk i (written by exactly one bite).
	chunkProgs []*ast.Program
	prog       *ast.Program
	table      *macro.Table
	// funcs is the current working set; slots are written disjointly.
	funcs []*ast.FuncDecl
	crown *sema.Crown
	units []*sema.FuncUnit
	info  *sema.Info
	names []string // info.Order snapshot for per-function stages
	snap  *opt.BodySnapshot
	osts  *opt.Stats
	sets  [][]*graph.Template
	out   *graph.Program

	diags source.DiagList // crown diagnostics, merged with item diags
	// itemDiags[i] collects the current stage's diagnostics for item i;
	// the join merges them in item order, the sequential driver's order.
	itemDiags []source.DiagList
}

// piece is one worker's share of a pass: a set of item indexes into the
// stage's work list.
type piece struct {
	idx   int
	items []int
	st    *state
}

func stateBlock(s *state, ctx operator.Context) *value.Block {
	return value.NewBlockStats(ctx.Pool().Opaque(s, len(s.src)/8), ctx.BlockStats())
}

func stateOf(v value.Value, what string) (*state, error) {
	p, err := opaqueOf(v, what)
	if err != nil {
		return nil, err
	}
	s, ok := p.(*state)
	if !ok {
		return nil, fmt.Errorf("%s: expected compiler state, got %T", what, p)
	}
	return s, nil
}

func pieceOf(v value.Value, what string) (*piece, error) {
	p, err := opaqueOf(v, what)
	if err != nil {
		return nil, err
	}
	pc, ok := p.(*piece)
	if !ok {
		return nil, fmt.Errorf("%s: expected work piece, got %T", what, p)
	}
	return pc, nil
}

func opaqueOf(v value.Value, what string) (interface{}, error) {
	if v == nil {
		return nil, fmt.Errorf("%s: missing block argument", what)
	}
	b, ok := v.(*value.Block)
	if !ok {
		return nil, fmt.Errorf("%s: block argument required, got %s", what, v.Kind())
	}
	o, ok := b.Data().(*value.Opaque)
	if !ok {
		return nil, fmt.Errorf("%s: unexpected payload %T", what, b.Data())
	}
	return o.Payload, nil
}

// balance distributes item weights over Ways groups greedily (heaviest
// first would need sorting; stable in-order assignment to the lightest
// group is deterministic and nearly as even for many small items). A nil
// unit makes every item its own unit; otherwise item i joins the group of
// item unit[i] (unit[i] <= i), which carries the whole unit's weight.
// Groups list their items in index order.
func balance(weights, unit []int) [Ways][]int {
	load := append([]int(nil), weights...)
	for i, u := range unit {
		if u != i {
			load[u] += weights[i]
		}
	}
	var groups [Ways][]int
	var loads [Ways]int
	group := make([]int, len(weights))
	for i := range weights {
		if unit != nil && unit[i] != i {
			group[i] = group[unit[i]]
		} else {
			for g := 1; g < Ways; g++ {
				if loads[g] < loads[group[i]] {
					group[i] = g
				}
			}
			loads[group[i]] += load[i]
		}
		groups[group[i]] = append(groups[group[i]], i)
	}
	return groups
}

// splitPieces wraps balanced groups (see balance) in piece blocks and gives
// every item a diagnostics buffer; piece 0 carries the state onward.
func splitPieces(s *state, weights, unit []int, ctx operator.Context) value.Value {
	groups := balance(weights, unit)
	s.itemDiags = make([]source.DiagList, len(weights))
	out := make(value.Tuple, Ways)
	for i := 0; i < Ways; i++ {
		pc := &piece{idx: i, items: groups[i], st: s}
		out[i] = value.NewBlockStats(ctx.Pool().Opaque(pc, len(pc.items)+1), ctx.BlockStats())
	}
	return out
}

// joinPieces validates the Ways pieces, merges the item diagnostics into
// the state in item order, and returns the state.
func joinPieces(args []value.Value, what string) (*state, error) {
	var ordered [Ways]*piece
	for _, a := range args {
		pc, err := pieceOf(a, what)
		if err != nil {
			return nil, err
		}
		if pc.idx < 0 || pc.idx >= Ways || ordered[pc.idx] != nil {
			return nil, fmt.Errorf("%s: bad piece index %d", what, pc.idx)
		}
		ordered[pc.idx] = pc
	}
	st := ordered[0].st
	for _, pc := range ordered {
		if pc == nil {
			return nil, fmt.Errorf("%s: missing piece", what)
		}
		if pc.st != st {
			return nil, fmt.Errorf("%s: pieces from different compilations", what)
		}
	}
	for i := range st.itemDiags {
		st.diags.Merge(&st.itemDiags[i])
	}
	st.itemDiags = nil
	return st, nil
}

// countTokens sums chunk token counts for the given items.
func countTokens(chunks [][]lexer.Token, items []int) int {
	n := 0
	for _, i := range items {
		n += len(chunks[i])
	}
	return n
}

// funcWeights returns ast.Count per function declaration.
func funcWeights(funcs []*ast.FuncDecl) []int {
	w := make([]int, len(funcs))
	for i, f := range funcs {
		w[i] = ast.Count(f.Body) + 1
	}
	return w
}

// passError is a pass's failing diagnostics; Compile returns them bare,
// as the sequential driver does.
type passError struct {
	pass  string
	diags error
}

func (e *passError) Error() string { return fmt.Sprintf("%s failed:\n%v", e.pass, e.diags) }

// failIfErrors aborts the pipeline when diagnostics carry errors, exactly
// like the sequential driver between passes.
func failIfErrors(s *state, pass string) error {
	if err := s.diags.Err(); err != nil {
		return &passError{pass: pass, diags: err}
	}
	return nil
}
