package selfcomp

import (
	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/lexer"
	"repro/internal/macro"
	"repro/internal/operator"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/value"
)

// Operators builds the compiler-operator registry for compiling (file,
// src) against reg — the paper's auxiliary module defining the parallel
// compiler's operators.
func Operators(file, src string, reg *operator.Registry) *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())

	// ---- Lexing (sequential; Table 1 shows it unchanged) ----
	r.MustRegister(&operator.Operator{
		Name: "lex", Arity: 0,
		Fn: func(ctx operator.Context, _ []value.Value) (value.Value, error) {
			s := &state{file: file, src: src, reg: reg}
			s.toks = lexer.New(file, src, &s.diags).ScanAll()
			ctx.Charge(int64(cLexTok * len(s.toks)))
			if err := failIfErrors(s, "lexing"); err != nil {
				return nil, err
			}
			return stateBlock(s, ctx), nil
		},
	})

	// ---- Parsing: split chunks / parse / merge in chunk order ----
	r.MustRegister(&operator.Operator{
		Name: "parse_split", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := stateOf(args[0], "parse_split")
			if err != nil {
				return nil, err
			}
			s.chunks = parser.SplitTopLevel(s.toks)
			s.chunkProgs = make([]*ast.Program, len(s.chunks))
			weights := make([]int, len(s.chunks))
			for i, c := range s.chunks {
				weights[i] = len(c)
			}
			ctx.Charge(int64(cParseTok * len(s.toks) / 25)) // crown ~4%
			return splitPieces(s, weights, nil, ctx), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "parse_bite", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			pc, err := pieceOf(args[0], "parse_bite")
			if err != nil {
				return nil, err
			}
			for _, i := range pc.items {
				pc.st.chunkProgs[i] = parser.ParseChunk(pc.st.file, pc.st.chunks[i], &pc.st.itemDiags[i])
			}
			ctx.Charge(int64(cParseTok * countTokens(pc.st.chunks, pc.items)))
			return args[0], nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "parse_join", Arity: Ways, Destructive: []bool{true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := joinPieces(args, "parse_join")
			if err != nil {
				return nil, err
			}
			s.prog = &ast.Program{File: s.file}
			for _, p := range s.chunkProgs {
				if p == nil {
					continue
				}
				s.prog.Defines = append(s.prog.Defines, p.Defines...)
				s.prog.Funcs = append(s.prog.Funcs, p.Funcs...)
			}
			ctx.Charge(int64(cParseTok * len(s.toks) / 33)) // crown ~3%
			if err := failIfErrors(s, "parsing"); err != nil {
				return nil, err
			}
			return stateBlock(s, ctx), nil
		},
	})

	// ---- Macro expansion: a top-down update walk ----
	r.MustRegister(&operator.Operator{
		Name: "macro_split", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := stateOf(args[0], "macro_split")
			if err != nil {
				return nil, err
			}
			s.table = macro.BuildTable(s.prog.Defines, &s.diags)
			s.funcs = append([]*ast.FuncDecl(nil), s.prog.Funcs...)
			ctx.Charge(int64(cMacro * (ast.CountProgram(s.prog)/30 + 8*s.table.Len())))
			return splitPieces(s, funcWeights(s.funcs), nil, ctx), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "macro_bite", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			pc, err := pieceOf(args[0], "macro_bite")
			if err != nil {
				return nil, err
			}
			work := 0
			for _, i := range pc.items {
				work += ast.Count(pc.st.funcs[i].Body)
				pc.st.funcs[i] = pc.st.table.ExpandFunc(pc.st.funcs[i], &pc.st.itemDiags[i])
			}
			ctx.Charge(int64(cMacro * work))
			return args[0], nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "macro_join", Arity: Ways, Destructive: []bool{true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := joinPieces(args, "macro_join")
			if err != nil {
				return nil, err
			}
			s.prog = &ast.Program{File: s.file, Funcs: s.funcs}
			ctx.Charge(int64(cMacro * len(s.funcs)))
			if err := failIfErrors(s, "macro expansion"); err != nil {
				return nil, err
			}
			return stateBlock(s, ctx), nil
		},
	})

	// ---- Environment analysis: an inherited-attribute walk ----
	r.MustRegister(&operator.Operator{
		Name: "env_split", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := stateOf(args[0], "env_split")
			if err != nil {
				return nil, err
			}
			s.crown = sema.Collect(s.prog, s.reg, &s.diags)
			s.funcs = s.crown.Decls()
			s.units = make([]*sema.FuncUnit, len(s.funcs))
			ctx.Charge(int64(cEnv * ast.CountProgram(s.prog) / 30))
			return splitPieces(s, funcWeights(s.funcs), nil, ctx), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "env_bite", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			pc, err := pieceOf(args[0], "env_bite")
			if err != nil {
				return nil, err
			}
			work := 0
			for _, i := range pc.items {
				work += ast.Count(pc.st.funcs[i].Body)
				pc.st.units[i] = sema.AnalyzeOne(pc.st.crown, pc.st.funcs[i], &pc.st.itemDiags[i])
			}
			ctx.Charge(int64(cEnv * work))
			return args[0], nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "env_join", Arity: Ways, Destructive: []bool{true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := joinPieces(args, "env_join")
			if err != nil {
				return nil, err
			}
			s.info = sema.Finalize(s.crown, s.units, &s.diags)
			s.names = s.info.Order
			s.osts = &opt.Stats{}
			ctx.Charge(int64(cEnv * len(s.names)))
			if err := failIfErrors(s, "environment analysis"); err != nil {
				return nil, err
			}
			return stateBlock(s, ctx), nil
		},
	})

	// ---- Optimization: two synthesized-attribute phases around the
	// inline snapshot ----
	registerOptPhase(r, "opt", cOptLocal, func(pc *piece, i int) int {
		f := pc.st.info.Funcs[pc.st.names[i]].Decl
		n := ast.Count(f.Body)
		opt.OptimizeFunc(pc.st.info, f, opt.Options{Level: 2}, pc.st.osts)
		return n
	}, func(s *state, ctx operator.Context) {
		// The snapshot is the crown cost of the inline phase.
		s.snap = opt.Snapshot(s.info)
		ctx.Charge(int64(cOptInl * totalNodes(s) / 12))
	})
	registerOptPhase(r, "inline", cOptInl, func(pc *piece, i int) int {
		f := pc.st.info.Funcs[pc.st.names[i]].Decl
		n := ast.Count(f.Body)
		opt.InlineFunc(pc.st.info, f, pc.st.snap, opt.Options{Level: 2}, pc.st.osts)
		opt.OptimizeFunc(pc.st.info, f, opt.Options{Level: 2}, pc.st.osts)
		return n
	}, nil)

	// ---- Graph conversion ----
	r.MustRegister(&operator.Operator{
		Name: "graph_split", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := stateOf(args[0], "graph_split")
			if err != nil {
				return nil, err
			}
			s.sets = make([][]*graph.Template, len(s.names))
			ctx.Charge(int64(cGraph * totalNodes(s) / 30))
			return splitPieces(s, nameWeights(s), nil, ctx), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "graph_bite", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			pc, err := pieceOf(args[0], "graph_bite")
			if err != nil {
				return nil, err
			}
			work := 0
			for _, i := range pc.items {
				f := pc.st.info.Funcs[pc.st.names[i]].Decl
				work += ast.Count(f.Body)
				pc.st.sets[i] = graph.BuildFunc(pc.st.info, f, &pc.st.itemDiags[i])
			}
			ctx.Charge(int64(cGraph * work))
			return args[0], nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "graph_join", Arity: Ways, Destructive: []bool{true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := joinPieces(args, "graph_join")
			if err != nil {
				return nil, err
			}
			s.out = &graph.Program{Templates: make(map[string]*graph.Template), Registry: s.reg}
			for _, set := range s.sets {
				for _, t := range set {
					s.out.Templates[t.Name] = t
				}
			}
			graph.Link(s.out, &s.diags)
			ctx.Charge(int64(cGraph * totalNodes(s) / 25))
			if err := failIfErrors(s, "graph conversion"); err != nil {
				return nil, err
			}
			return stateBlock(s, ctx), nil
		},
	})

	return r
}

// registerOptPhase registers a split/bite/join triple for an optimization
// phase. post, if non-nil, runs in the join (the inline snapshot). The
// split keeps every nest on one worker (see nestUnits).
func registerOptPhase(r *operator.Registry, name string, unitCost int,
	work func(pc *piece, i int) int, post func(*state, operator.Context)) {
	r.MustRegister(&operator.Operator{
		Name: name + "_split", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := stateOf(args[0], name+"_split")
			if err != nil {
				return nil, err
			}
			ctx.Charge(int64(unitCost * totalNodes(s) / 40))
			return splitPieces(s, nameWeights(s), nestUnits(s), ctx), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: name + "_bite", Arity: 1, Destructive: []bool{true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			pc, err := pieceOf(args[0], name+"_bite")
			if err != nil {
				return nil, err
			}
			total := 0
			for _, i := range pc.items {
				total += work(pc, i)
			}
			ctx.Charge(int64(unitCost * total))
			return args[0], nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: name + "_join", Arity: Ways, Destructive: []bool{true, true, true},
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			s, err := joinPieces(args, name+"_join")
			if err != nil {
				return nil, err
			}
			if post != nil {
				post(s, ctx)
			} else {
				ctx.Charge(int64(unitCost * len(s.names)))
			}
			if err := failIfErrors(s, name); err != nil {
				return nil, err
			}
			return stateBlock(s, ctx), nil
		},
	})
}

// totalNodes counts the current AST size over all analyzed functions.
func totalNodes(s *state) int {
	n := 0
	for _, name := range s.names {
		n += ast.Count(s.info.Funcs[name].Decl.Body)
	}
	return n
}

// nestUnits maps each info.Order entry to the index of its sema owner. The
// optimizer's walks over an owner's body descend into the bodies lifted out
// of it, which it also rewrites as functions of their own, so splitting a
// nest across workers would race.
func nestUnits(s *state) []int {
	at := make(map[string]int, len(s.names))
	unit := make([]int, len(s.names))
	for i, name := range s.names {
		at[name] = i
		unit[i] = at[s.info.Funcs[name].Owner]
	}
	return unit
}

// nameWeights returns per-function node counts over info.Order.
func nameWeights(s *state) []int {
	w := make([]int, len(s.names))
	for i, name := range s.names {
		w[i] = ast.Count(s.info.Funcs[name].Decl.Body) + 1
	}
	return w
}
