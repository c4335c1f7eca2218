// Package circuit is a synchronous gate-level circuit simulator
// coordinated by Delirium — the "simple circuit simulator" the paper lists
// among its applications (§4). Each clock cycle evaluates every gate from
// the previous cycle's wire values (two-phase semantics, so gate order is
// irrelevant) and latches the results. The coordination framework is the
// familiar shape: iterate over cycles, fork the gate list four ways, join
// by latching — structurally the same framework as the retina model, which
// is the paper's point about reusable coordination topologies.
package circuit

import (
	"fmt"

	"repro/internal/operator"
	"repro/internal/value"
)

// Parts is the parallel width of the gate partition.
const Parts = 4

// GateOp enumerates gate types.
type GateOp int

// Gate operators.
const (
	AND GateOp = iota
	OR
	NOT
	XOR
	NAND
	numOps
)

// String names the gate type.
func (g GateOp) String() string {
	switch g {
	case AND:
		return "AND"
	case OR:
		return "OR"
	case NOT:
		return "NOT"
	case XOR:
		return "XOR"
	case NAND:
		return "NAND"
	default:
		return fmt.Sprintf("op(%d)", int(g))
	}
}

// Gate reads one or two wires and drives its own output wire.
type Gate struct {
	Op   GateOp
	A, B int // input wire indices (B ignored for NOT)
}

// Config sizes the circuit.
type Config struct {
	// Inputs is the number of primary input wires.
	Inputs int
	// Gates is the gate count; gate i drives wire Inputs+i.
	Gates int
	// Cycles is the number of clock cycles to simulate.
	Cycles int
	// Seed drives the deterministic netlist and stimulus generators.
	Seed int64
}

// DefaultConfig is a medium netlist.
func DefaultConfig() Config { return Config{Inputs: 16, Gates: 400, Cycles: 8, Seed: 11} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Inputs < 1 || c.Gates < Parts || c.Cycles < 1 {
		return fmt.Errorf("circuit: invalid config %+v", c)
	}
	return nil
}

// Circuit is the simulation state; it travels linearly between operators.
type Circuit struct {
	Cfg   Config
	Gates []Gate
	// Prev is read by every gate; Next is written in disjoint bands.
	Prev, Next []bool
	// Cycle counts completed cycles; Signature folds every latched state.
	Cycle     int
	Signature uint64
	rng       uint64
}

// Words sizes the circuit for block accounting.
func (c *Circuit) Words() int { return len(c.Prev) + len(c.Next) + 3*len(c.Gates) }

// New builds a deterministic random netlist: each gate reads wires with
// lower indices than its own output (plus primary inputs), so the two-phase
// semantics match a registered pipeline.
func New(cfg Config) *Circuit {
	c := &Circuit{Cfg: cfg, rng: uint64(cfg.Seed)*6364136223846793005 + 1442695040888963407}
	wires := cfg.Inputs + cfg.Gates
	c.Prev = make([]bool, wires)
	c.Next = make([]bool, wires)
	c.Gates = make([]Gate, cfg.Gates)
	for i := range c.Gates {
		avail := cfg.Inputs + i
		c.Gates[i] = Gate{
			Op: GateOp(c.next() % uint64(numOps)),
			A:  int(c.next() % uint64(avail)),
			B:  int(c.next() % uint64(avail)),
		}
	}
	c.applyStimulus()
	copy(c.Prev, c.Next)
	return c
}

func (c *Circuit) next() uint64 {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	return c.rng >> 11
}

// applyStimulus drives the primary inputs for the coming cycle.
func (c *Circuit) applyStimulus() {
	for i := 0; i < c.Cfg.Inputs; i++ {
		c.Next[i] = c.next()&1 == 1
	}
}

// Eval computes one gate's output from the previous state.
func (c *Circuit) Eval(g Gate) bool {
	a, b := c.Prev[g.A], c.Prev[g.B]
	switch g.Op {
	case AND:
		return a && b
	case OR:
		return a || b
	case NOT:
		return !a
	case XOR:
		return a != b
	case NAND:
		return !(a && b)
	default:
		return false
	}
}

// EvalRange evaluates gates [g0, g1), writing their output wires (a
// disjoint band of Next).
func (c *Circuit) EvalRange(g0, g1 int) {
	for i := g0; i < g1; i++ {
		c.Next[c.Cfg.Inputs+i] = c.Eval(c.Gates[i])
	}
}

// Latch finishes a cycle: fold the signature, swap states, and drive the
// next stimulus.
func (c *Circuit) Latch() {
	for i, v := range c.Next {
		if v {
			c.Signature ^= 0x9e3779b97f4a7c15 * uint64(i+1)
		}
		c.Signature = c.Signature*31 + 1
	}
	c.Prev, c.Next = c.Next, c.Prev
	copy(c.Next, c.Prev)
	c.applyStimulus()
	c.Cycle++
}

// PartRange returns the i-th of Parts contiguous gate ranges.
func PartRange(gates, i int) (int, int) {
	return i * gates / Parts, (i + 1) * gates / Parts
}

// Reference simulates sequentially — the oracle for the Delirium runs.
func Reference(cfg Config) *Circuit {
	c := New(cfg)
	for cy := 0; cy < cfg.Cycles; cy++ {
		c.EvalRange(0, cfg.Gates)
		c.Latch()
	}
	return c
}

// Equal compares two simulations' observable state.
func Equal(a, b *Circuit) bool {
	if a.Cycle != b.Cycle || a.Signature != b.Signature || len(a.Prev) != len(b.Prev) {
		return false
	}
	for i := range a.Prev {
		if a.Prev[i] != b.Prev[i] {
			return false
		}
	}
	return true
}

// value.BlockData plumbing shared by the operators.

func circuitBlock(c *Circuit, ctx operator.Context) *value.Block {
	return value.NewBlockStats(ctx.Pool().Opaque(c, c.Words()), ctx.BlockStats())
}
