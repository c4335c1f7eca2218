package stress

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// kind classifies a generated variable so expressions stay type-correct at
// runtime: integers feed arithmetic and st_mix, blocks feed the st_*
// block operators.
type kind int

const (
	kInt kind = iota
	kBlock
)

// retKind classifies a generated function's return shape.
type retKind int

const (
	retInt   retKind = iota // a single integer
	retBlock                // a single block
	retPair                 // a two-integer package, decomposed by callers
)

// Sig is a generated function's calling shape. First-class selection
// (`(if c then fA else fB)(args)`) requires both candidates to share one.
type Sig struct {
	Params []kind
	Ret    retKind
}

func (s Sig) key() string {
	var b strings.Builder
	for _, k := range s.Params {
		if k == kBlock {
			b.WriteByte('B')
		} else {
			b.WriteByte('i')
		}
	}
	fmt.Fprintf(&b, "->%d", s.Ret)
	return b.String()
}

// neutral returns the simplest expression of the signature's return shape
// — the shrinker's replacement for a stubbed function body.
func (s Sig) neutral() string {
	switch s.Ret {
	case retBlock:
		return "st_cell(1)"
	case retPair:
		return "<1, 2>"
	default:
		return "1"
	}
}

// Bind is one let binding of a generated function body. The generator
// keeps bodies structured (rather than flat text) so the shrinker can
// drop or neutralize individual bindings and re-render.
type Bind struct {
	// Names holds one name, or several for a <a, b> decomposition.
	Names []string
	// Kinds gives each bound name's kind, aligned with Names.
	Kinds []kind
	// Init is the rendered initializer expression. For IsFn binds it is
	// the full nested definition ("g3(v4) st_mix(v4, p0)") instead.
	Init string
	// IsFn marks a nested function definition binding.
	IsFn bool
}

// Fn is one generated function (or main).
type Fn struct {
	Name   string
	Params []string
	Sig    Sig
	Binds  []*Bind
	Result string
	// Cost is a conservative static bound on the dynamic operator
	// executions one call of this function can trigger (callees included,
	// both conditional arms counted, iterate bodies multiplied by their
	// trip counts). The generator uses it to keep whole-program runtime
	// bounded on irregular call DAGs — without it, diamond fan-out would
	// make dynamic work exponential in graph depth.
	Cost int64
}

// render appends the function's source text.
func (f *Fn) render(b *strings.Builder) {
	fmt.Fprintf(b, "%s(%s)\n", f.Name, strings.Join(f.Params, ", "))
	if len(f.Binds) == 0 {
		fmt.Fprintf(b, "  %s\n\n", f.Result)
		return
	}
	for i, bind := range f.Binds {
		prefix := "      "
		if i == 0 {
			prefix = "  let "
		}
		switch {
		case bind.IsFn:
			fmt.Fprintf(b, "%s%s\n", prefix, bind.Init)
		case len(bind.Names) > 1:
			fmt.Fprintf(b, "%s<%s> = %s\n", prefix, strings.Join(bind.Names, ", "), bind.Init)
		default:
			fmt.Fprintf(b, "%s%s = %s\n", prefix, bind.Names[0], bind.Init)
		}
	}
	fmt.Fprintf(b, "  in %s\n\n", f.Result)
}

// Program is a generated stress program in structured form. Source
// renders it; the shrinker edits it.
type Program struct {
	Cfg   GenConfig
	Funcs []*Fn
	Main  *Fn
}

// Source renders the program as Delirium source text.
func (p *Program) Source() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- stress workload: funcs=%d seed=%d budget=%d\n\n",
		p.Cfg.Funcs, p.Cfg.Seed, p.Cfg.CostBudget)
	for _, f := range p.Funcs {
		f.render(&b)
	}
	p.Main.render(&b)
	return b.String()
}

// clone deep-copies the program for destructive shrinking.
func (p *Program) clone() *Program {
	out := &Program{Cfg: p.Cfg}
	cp := func(f *Fn) *Fn {
		nf := *f
		nf.Binds = make([]*Bind, len(f.Binds))
		for i, b := range f.Binds {
			nb := *b
			nf.Binds[i] = &nb
		}
		return &nf
	}
	for _, f := range p.Funcs {
		out.Funcs = append(out.Funcs, cp(f))
	}
	out.Main = cp(p.Main)
	return out
}

// GenConfig parameterizes generation. The same config always produces the
// same program.
type GenConfig struct {
	// Funcs is the top-level function count; coordination-graph size
	// scales roughly linearly with it (~20–40 nodes per function).
	Funcs int
	// Seed drives every random choice.
	Seed int64
	// CostBudget bounds the dynamic operator executions of one run
	// (conservatively counted). Zero selects 20_000 + 100*Funcs, so
	// bigger graphs also execute more of themselves.
	CostBudget int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Funcs < 8 {
		c.Funcs = 8
	}
	if c.CostBudget <= 0 {
		c.CostBudget = 20_000 + 100*int64(c.Funcs)
	}
	return c
}

// Generate renders a seeded random stress program as source text.
func Generate(cfg GenConfig) string { return NewProgram(cfg).Source() }

// NewProgram builds a seeded random stress program: an irregular DAG of
// Funcs functions over the stress operators, with deep let/iterate
// nests, conditionals, first-class functions, destructive block
// pipelines, and multi-value packages. Deterministic per config.
func NewProgram(cfg GenConfig) *Program {
	cfg = cfg.withDefaults()
	g := &generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		maxFnCost: cfg.CostBudget / 4,
		bySig:     make(map[string][]*Fn),
	}
	p := &Program{Cfg: cfg}
	for i := 0; i < cfg.Funcs; i++ {
		f := g.genFn(i, p.Funcs)
		p.Funcs = append(p.Funcs, f)
		g.bySig[f.Sig.key()] = append(g.bySig[f.Sig.key()], f)
	}
	p.Main = g.genMain(p.Funcs)
	return p
}

// generator carries generation state shared across functions.
type generator struct {
	cfg       GenConfig
	rng       *rand.Rand
	maxFnCost int64
	bySig     map[string][]*Fn
}

// scope tracks the variables in play while one function body grows.
type scope struct {
	ints   []string
	blocks []string
	seq    int
	cost   int64
}

func (s *scope) fresh(prefix string) string {
	s.seq++
	return fmt.Sprintf("%s%d", prefix, s.seq)
}

func (s *scope) add(name string, k kind) {
	if k == kBlock {
		s.blocks = append(s.blocks, name)
	} else {
		s.ints = append(s.ints, name)
	}
}

// intAtom picks an integer-valued leaf: a variable in scope or a small
// constant.
func (g *generator) intAtom(s *scope) string {
	if len(s.ints) > 0 && g.rng.Intn(4) != 0 {
		return s.ints[g.rng.Intn(len(s.ints))]
	}
	return fmt.Sprintf("%d", g.rng.Intn(97)+1)
}

// blockAtom picks a block variable, or synthesizes a fresh cell when none
// is in scope.
func (g *generator) blockAtom(s *scope) string {
	if len(s.blocks) > 0 {
		return s.blocks[g.rng.Intn(len(s.blocks))]
	}
	s.cost += 16
	return fmt.Sprintf("st_cell(%s)", g.intAtom(s))
}

var intOps = []string{"add", "sub", "mul", "min", "max", "st_mix"}

// intExpr builds a random integer expression tree of the given depth.
// Block probes appear as leaves when a block is in scope, so block
// contents flow into conditionals, loop steps, and plain arithmetic.
func (g *generator) intExpr(s *scope, depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		if len(s.blocks) > 0 && g.rng.Intn(6) == 0 {
			s.cost += 16
			return fmt.Sprintf("st_probe(%s)", s.blocks[g.rng.Intn(len(s.blocks))])
		}
		return g.intAtom(s)
	}
	s.cost++
	if g.rng.Intn(8) == 0 {
		return fmt.Sprintf("incr(%s)", g.intExpr(s, depth-1))
	}
	op := intOps[g.rng.Intn(len(intOps))]
	return fmt.Sprintf("%s(%s, %s)", op, g.intExpr(s, depth-1), g.intExpr(s, depth-1))
}

// condExpr builds an integer-valued conditional.
func (g *generator) condExpr(s *scope, depth int) string {
	s.cost += 2
	return fmt.Sprintf("if lt(%s, %d) then %s else %s",
		g.intAtom(s), g.rng.Intn(128), g.intExpr(s, depth), g.intExpr(s, depth))
}

// genFn generates function idx, allowed to call any of prior.
func (g *generator) genFn(idx int, prior []*Fn) *Fn {
	f := &Fn{Name: fmt.Sprintf("f%d", idx)}
	np := 1 + g.rng.Intn(3)
	for i := 0; i < np; i++ {
		k := kInt
		if g.rng.Intn(4) == 0 {
			k = kBlock
		}
		f.Sig.Params = append(f.Sig.Params, k)
		f.Params = append(f.Params, fmt.Sprintf("p%d", i))
	}
	switch r := g.rng.Intn(100); {
	case r < 60:
		f.Sig.Ret = retInt
	case r < 85:
		f.Sig.Ret = retBlock
	default:
		f.Sig.Ret = retPair
	}

	s := &scope{}
	for i, p := range f.Params {
		s.add(p, f.Sig.Params[i])
	}
	nb := 2 + g.rng.Intn(9)
	for i := 0; i < nb; i++ {
		g.genBind(f, s, prior)
	}
	g.genResult(f, s)
	f.Cost = s.cost + 4
	return f
}

// genBind appends one randomly-flavored binding to f.
func (g *generator) genBind(f *Fn, s *scope, prior []*Fn) {
	switch roll := g.rng.Intn(100); {
	case roll < 26:
		g.bindInt(f, s)
	case roll < 46:
		if !g.bindCall(f, s, prior) {
			g.bindBlockOp(f, s)
		}
	case roll < 60:
		g.bindBlockOp(f, s)
	case roll < 68:
		g.bindFork(f, s)
	case roll < 78:
		g.bindValue(f, s, kInt, g.condExpr(s, 1+g.rng.Intn(2)))
	case roll < 90:
		g.bindIterate(f, s)
	default:
		g.bindFirstClass(f, s, prior)
	}
}

// bindValue appends a simple single-name binding.
func (g *generator) bindValue(f *Fn, s *scope, k kind, init string) {
	prefix := "v"
	if k == kBlock {
		prefix = "b"
	}
	name := s.fresh(prefix)
	f.Binds = append(f.Binds, &Bind{Names: []string{name}, Kinds: []kind{k}, Init: init})
	s.add(name, k)
}

func (g *generator) bindInt(f *Fn, s *scope) {
	g.bindValue(f, s, kInt, g.intExpr(s, 2+g.rng.Intn(3)))
}

// bindBlockOp creates or destructively transforms a block.
func (g *generator) bindBlockOp(f *Fn, s *scope) {
	if len(s.blocks) == 0 || g.rng.Intn(3) == 0 {
		s.cost += 16
		g.bindValue(f, s, kBlock, fmt.Sprintf("st_cell(%s)", g.intExpr(s, 1)))
		return
	}
	s.cost += 20
	if len(s.blocks) > 1 && g.rng.Intn(3) == 0 {
		a := s.blocks[g.rng.Intn(len(s.blocks))]
		b := s.blocks[g.rng.Intn(len(s.blocks))]
		g.bindValue(f, s, kBlock, fmt.Sprintf("st_blend(%s, %s)", a, b))
		return
	}
	g.bindValue(f, s, kBlock,
		fmt.Sprintf("st_stir(%s, %s)", s.blocks[g.rng.Intn(len(s.blocks))], g.intExpr(s, 1)))
}

// bindFork splits a block into a two-block package.
func (g *generator) bindFork(f *Fn, s *scope) {
	if len(s.blocks) == 0 {
		g.bindBlockOp(f, s)
		return
	}
	s.cost += 20
	a, b := s.fresh("b"), s.fresh("b")
	f.Binds = append(f.Binds, &Bind{
		Names: []string{a, b},
		Kinds: []kind{kBlock, kBlock},
		Init:  fmt.Sprintf("st_fork(%s)", s.blocks[g.rng.Intn(len(s.blocks))]),
	})
	s.add(a, kBlock)
	s.add(b, kBlock)
}

// callArgs builds an argument list matching a signature.
func (g *generator) callArgs(s *scope, sig Sig) string {
	args := make([]string, len(sig.Params))
	for i, k := range sig.Params {
		if k == kBlock {
			args[i] = g.blockAtom(s)
		} else {
			args[i] = g.intAtom(s)
		}
	}
	return strings.Join(args, ", ")
}

// bindCallTo binds the result of calling expression callee with sig's
// shape.
func (g *generator) bindCallTo(f *Fn, s *scope, callee string, sig Sig) {
	switch sig.Ret {
	case retPair:
		a, b := s.fresh("v"), s.fresh("v")
		f.Binds = append(f.Binds, &Bind{
			Names: []string{a, b},
			Kinds: []kind{kInt, kInt},
			Init:  fmt.Sprintf("%s(%s)", callee, g.callArgs(s, sig)),
		})
		s.add(a, kInt)
		s.add(b, kInt)
	case retBlock:
		g.bindValue(f, s, kBlock, fmt.Sprintf("%s(%s)", callee, g.callArgs(s, sig)))
	default:
		g.bindValue(f, s, kInt, fmt.Sprintf("%s(%s)", callee, g.callArgs(s, sig)))
	}
}

// bindCall calls an earlier function whose cost still fits this
// function's budget. Candidate choice is intentionally irregular: half
// the time uniform over the whole eligible prefix (high fan-in on early
// leaves), half the time biased to recent functions (deep chains).
func (g *generator) bindCall(f *Fn, s *scope, prior []*Fn) bool {
	callee := g.pickCallee(s, prior)
	if callee == nil {
		return false
	}
	s.cost += callee.Cost + 2
	g.bindCallTo(f, s, callee.Name, callee.Sig)
	return true
}

func (g *generator) pickCallee(s *scope, prior []*Fn) *Fn {
	if len(prior) == 0 {
		return nil
	}
	budget := g.maxFnCost - s.cost
	for try := 0; try < 6; try++ {
		var cand *Fn
		if g.rng.Intn(2) == 0 {
			cand = prior[g.rng.Intn(len(prior))]
		} else {
			lo := len(prior) - 16
			if lo < 0 {
				lo = 0
			}
			cand = prior[lo+g.rng.Intn(len(prior)-lo)]
		}
		if cand.Cost <= budget {
			return cand
		}
	}
	return nil
}

// bindIterate appends a bounded integer accumulator loop. The step
// expression sees the loop variables, so iteration state threads through
// arbitrary expression shapes (including block probes).
func (g *generator) bindIterate(f *Fn, s *scope) {
	iv, tv := s.fresh("i"), s.fresh("t")
	trips := int64(2 + g.rng.Intn(4))
	init := g.intAtom(s)

	// Cost of the step body is paid once per trip.
	inner := &scope{ints: append(append([]string{}, s.ints...), iv, tv), blocks: s.blocks, seq: s.seq}
	step := g.intExpr(inner, 1+g.rng.Intn(2))
	if g.rng.Intn(3) == 0 {
		step = fmt.Sprintf("if lt(%s, %d) then %s else st_mix(%s, %s)",
			iv, g.rng.Intn(3)+1, step, tv, iv)
		inner.cost += 4
	}
	s.seq = inner.seq
	s.cost += (inner.cost-s.cost)*trips + 2*trips + 4

	name := s.fresh("v")
	f.Binds = append(f.Binds, &Bind{
		Names: []string{name},
		Kinds: []kind{kInt},
		Init: fmt.Sprintf("iterate\n     {\n       %s = 0, incr(%s)\n       %s = %s, %s\n     } while lt(%s, %d),\n     result %s",
			iv, iv, tv, init, step, iv, trips, tv),
	})
	s.add(name, kInt)
}

// bindFirstClass exercises first-class functions: either a conditional
// selection between two same-signature top-level functions applied as a
// closure, or a nested function definition captured and applied.
func (g *generator) bindFirstClass(f *Fn, s *scope, prior []*Fn) {
	budget := g.maxFnCost - s.cost
	// Prefer top-level selection when a signature bucket offers two
	// affordable candidates.
	keys := make([]string, 0, len(g.bySig))
	for k, fns := range g.bySig {
		if len(fns) >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys) // map order must not leak into generation
	if len(keys) > 0 {
		key := keys[g.rng.Intn(len(keys))]
		fns := g.bySig[key]
		a := fns[g.rng.Intn(len(fns))]
		b := fns[g.rng.Intn(len(fns))]
		worst := a.Cost
		if b.Cost > worst {
			worst = b.Cost
		}
		if a != b && worst+8 <= budget {
			s.cost += worst + 8
			callee := fmt.Sprintf("(if lt(%s, %d) then %s else %s)",
				g.intAtom(s), g.rng.Intn(128), a.Name, b.Name)
			g.bindCallTo(f, s, callee, a.Sig)
			return
		}
	}
	// Fall back to a nested definition: g(v) captures enclosing scope.
	gname, v := s.fresh("g"), s.fresh("w")
	inner := &scope{ints: append(append([]string{}, s.ints...), v), blocks: s.blocks, seq: s.seq}
	body := g.intExpr(inner, 2)
	s.seq = inner.seq
	s.cost += (inner.cost - s.cost) + 6
	f.Binds = append(f.Binds, &Bind{
		Names: []string{gname},
		Kinds: []kind{kInt},
		IsFn:  true,
		Init:  fmt.Sprintf("%s(%s) %s", gname, v, body),
	})
	g.bindValue(f, s, kInt, fmt.Sprintf("(%s)(%s)", gname, g.intAtom(s)))
}

// genResult folds every variable in scope into the function's result so
// each binding's value is observable in the output: integers directly,
// blocks through st_probe. The fold is non-commutative, so ordering bugs
// surface too.
func (g *generator) genResult(f *Fn, s *scope) {
	acc := ""
	for _, v := range s.ints {
		if acc == "" {
			acc = v
			continue
		}
		s.cost++
		acc = fmt.Sprintf("st_mix(%s, %s)", acc, v)
	}
	for _, b := range s.blocks {
		s.cost += 17
		probe := fmt.Sprintf("st_probe(%s)", b)
		if acc == "" {
			acc = probe
			continue
		}
		acc = fmt.Sprintf("st_mix(%s, %s)", acc, probe)
	}
	if acc == "" {
		acc = "7"
	}
	switch f.Sig.Ret {
	case retBlock:
		s.cost += 20
		if len(s.blocks) > 0 {
			f.Result = fmt.Sprintf("st_stir(%s, %s)", s.blocks[g.rng.Intn(len(s.blocks))], acc)
		} else {
			f.Result = fmt.Sprintf("st_cell(%s)", acc)
		}
	case retPair:
		s.cost += 2
		f.Result = fmt.Sprintf("<%s, %s>", acc, g.intExpr(s, 1))
	default:
		f.Result = acc
	}
}

// genMain builds main: calls into the heavy end of the DAG until the
// whole-program cost budget is spent, then folds everything reachable.
func (g *generator) genMain(funcs []*Fn) *Fn {
	f := &Fn{Name: "main", Sig: Sig{Ret: retInt}}
	s := &scope{}
	budget := g.cfg.CostBudget
	calls := 0
	for calls < 8 {
		var cand *Fn
		for try := 0; try < 8; try++ {
			lo := len(funcs) / 2
			c := funcs[lo+g.rng.Intn(len(funcs)-lo)]
			if c.Cost <= budget-s.cost {
				cand = c
				break
			}
		}
		if cand == nil {
			break
		}
		s.cost += cand.Cost + 2
		g.bindCallTo(f, s, cand.Name, cand.Sig)
		calls++
	}
	if calls == 0 {
		// Every function exceeds the budget slice: call the cheapest one.
		cheapest := funcs[0]
		for _, c := range funcs {
			if c.Cost < cheapest.Cost {
				cheapest = c
			}
		}
		g.bindCallTo(f, s, cheapest.Name, cheapest.Sig)
	}
	// Main always runs a destructive block pipeline of its own, so every
	// generated program — whatever the call DAG reached — exercises
	// allocation, in-place mutation, and splitting, and the oracle's
	// seeded-fault legs always have targets to kill.
	s.cost += 60
	g.bindValue(f, s, kBlock, fmt.Sprintf("st_stir(st_cell(%s), %s)", g.intAtom(s), g.intAtom(s)))
	g.bindFork(f, s)
	g.genResult(f, s)
	f.Cost = s.cost
	return f
}
