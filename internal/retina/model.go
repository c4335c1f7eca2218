// Package retina reimplements case study #1 of the paper (§5): a
// convolution-based, retina-inspired neural model for motion detection
// (Eeckman's model, originally a Fortran code from the Naval Weapons
// Center), decomposed into Delirium operators exactly as the paper
// describes — target_split / target_bite, pre_update, convol_split /
// convol_bite, post_up (first version), and update_split / update_bite /
// done_up (the load-balanced version of §5.2).
//
// The model: a scene of moving targets is stamped onto the input layer of
// a stack of 2-D grids; each simulation slab convolves one layer into the
// next; a temporal-integration grid accumulates motion energy. The data is
// passed between operators as reference-counted blocks with the ownership
// discipline of §2.1: splits hand out disjoint parts, merges return the
// assembled scene, and a careful decomposition never copies a large
// structure (the tests assert zero copy-on-write events).
package retina

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// Quarters is the parallel width of the decomposition. The paper chose
// four-way parallelism because the first target machine, a Cray-2, has
// four processors (§5.1).
const Quarters = 4

// Config sizes the simulation.
type Config struct {
	// W, H are the grid dimensions.
	W, H int
	// K is the (odd) convolution kernel width.
	K int
	// Slabs is the number of convolution passes per timestep; layers
	// number Slabs+1. Must be even so the unbalanced post_up batches
	// integrations in pairs.
	Slabs int
	// Timesteps is NUM_ITER.
	Timesteps int
	// TargetsPerQuarter is the tracked-target count per piece.
	TargetsPerQuarter int
	// TargetWork is the number of trajectory integration substeps each
	// target performs per timestep (the target_bite load).
	TargetWork int
	// Seed makes target initialization deterministic.
	Seed int64
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	MemPlan bool
}

// DefaultConfig is a medium scene suitable for experiments.
func DefaultConfig() Config {
	return Config{W: 64, H: 64, K: 5, Slabs: 4, Timesteps: 3,
		TargetsPerQuarter: 16, TargetWork: 400, Seed: 1990}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.W < 8 || c.H < 8:
		return fmt.Errorf("retina: grid %dx%d too small", c.W, c.H)
	case c.K < 3 || c.K%2 == 0:
		return fmt.Errorf("retina: kernel width %d must be odd and >= 3", c.K)
	case c.Slabs < 2 || c.Slabs%2 != 0:
		return fmt.Errorf("retina: slab count %d must be even and >= 2", c.Slabs)
	case c.Timesteps < 1:
		return fmt.Errorf("retina: timesteps %d < 1", c.Timesteps)
	case c.TargetsPerQuarter < 1:
		return fmt.Errorf("retina: need at least one target per quarter")
	}
	return nil
}

// Target is one tracked moving stimulus.
type Target struct {
	X, Y   float64
	VX, VY float64
	Amp    float64
}

// Scene is the whole simulation state. It travels between operators inside
// a single block whose ownership is linear: split operators consume it and
// hand out pieces, merge operators reassemble it.
type Scene struct {
	Cfg    Config
	Kernel []float64
	// Layers[0] is the stamped input; Layers[s+1] is written by slab s.
	Layers []*value.FloatGrid
	// Motion is the temporal-integration grid.
	Motion *value.FloatGrid
	// Targets holds the four per-piece subsets.
	Targets [Quarters][]Target
	// CurSlab tracks which slab the next convol_split serves.
	CurSlab int
	// Time counts completed timesteps.
	Time int
}

// Words reports the scene size for block accounting.
func (s *Scene) Words() int {
	w := s.Motion.Size()
	for _, l := range s.Layers {
		w += l.Size()
	}
	return w + len(s.Kernel) + Quarters*s.Cfg.TargetsPerQuarter*5
}

// NewScene builds the initial scene: blurred-edge kernel, zero layers, and
// deterministic targets spread over the four quarters.
func NewScene(cfg Config) *Scene {
	s := &Scene{Cfg: cfg}
	s.Kernel = makeKernel(cfg.K)
	s.Layers = make([]*value.FloatGrid, cfg.Slabs+1)
	for i := range s.Layers {
		s.Layers[i] = value.NewFloatGrid(cfg.H, cfg.W)
	}
	s.Motion = value.NewFloatGrid(cfg.H, cfg.W)
	rng := newLCG(cfg.Seed)
	for q := 0; q < Quarters; q++ {
		s.Targets[q] = make([]Target, cfg.TargetsPerQuarter)
		for i := range s.Targets[q] {
			s.Targets[q][i] = Target{
				X:   rng.float() * float64(cfg.W-1),
				Y:   rng.float() * float64(cfg.H-1),
				VX:  (rng.float() - 0.5) * 2,
				VY:  (rng.float() - 0.5) * 2,
				Amp: 0.5 + rng.float(),
			}
		}
	}
	return s
}

// makeKernel builds a normalized center-surround kernel (difference of a
// peak and its neighborhood), the retina's receptive-field shape.
func makeKernel(k int) []float64 {
	kern := make([]float64, k*k)
	c := k / 2
	var sum float64
	for r := 0; r < k; r++ {
		for q := 0; q < k; q++ {
			d2 := float64((r-c)*(r-c) + (q-c)*(q-c))
			v := math.Exp(-d2/2) - 0.4*math.Exp(-d2/8)
			kern[r*k+q] = v
			sum += math.Abs(v)
		}
	}
	for i := range kern {
		kern[i] /= sum
	}
	return kern
}

// lcg is a small deterministic generator (the model must not depend on
// math/rand ordering guarantees).
type lcg struct{ state uint64 }

func newLCG(seed int64) *lcg {
	return &lcg{state: uint64(seed)*6364136223846793005 + 1442695040888963407}
}

func (l *lcg) next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state
}

func (l *lcg) float() float64 { return float64(l.next()>>11) / float64(1<<53) }

// moveTargets advances one subset by cfg.TargetWork trajectory substeps,
// bouncing off the walls. This is the target_bite computation.
func moveTargets(cfg Config, targets []Target) {
	dt := 1.0 / float64(cfg.TargetWork)
	for i := range targets {
		t := &targets[i]
		for s := 0; s < cfg.TargetWork; s++ {
			t.X += t.VX * dt
			t.Y += t.VY * dt
			if t.X < 0 {
				t.X, t.VX = -t.X, -t.VX
			}
			if t.X > float64(cfg.W-1) {
				t.X, t.VX = 2*float64(cfg.W-1)-t.X, -t.VX
			}
			if t.Y < 0 {
				t.Y, t.VY = -t.Y, -t.VY
			}
			if t.Y > float64(cfg.H-1) {
				t.Y, t.VY = 2*float64(cfg.H-1)-t.Y, -t.VY
			}
		}
	}
}

// stampTargets clears the input layer and deposits a 3x3 spot per target,
// in deterministic subset-then-index order. This is pre_update's
// housekeeping.
func stampTargets(s *Scene) {
	in := s.Layers[0]
	for i := range in.Cells {
		in.Cells[i] = 0
	}
	for q := 0; q < Quarters; q++ {
		for _, t := range s.Targets[q] {
			cx, cy := int(t.X+0.5), int(t.Y+0.5)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					x, y := cx+dx, cy+dy
					if x < 0 || x >= s.Cfg.W || y < 0 || y >= s.Cfg.H {
						continue
					}
					w := t.Amp
					if dx != 0 || dy != 0 {
						w *= 0.5
					}
					in.Set(y, x, in.At(y, x)+w)
				}
			}
		}
	}
}

// convolveRows computes dst rows [r0, r1) as the kernel response over src,
// with clamped borders. This is convol_bite's quarter of a slab.
func convolveRows(cfg Config, kernel []float64, src, dst *value.FloatGrid, r0, r1 int) {
	k := cfg.K
	c := k / 2
	for r := r0; r < r1; r++ {
		for q := 0; q < cfg.W; q++ {
			var acc float64
			for kr := 0; kr < k; kr++ {
				sr := clamp(r+kr-c, 0, cfg.H-1)
				row := src.Row(sr)
				base := kr * k
				for kq := 0; kq < k; kq++ {
					sq := clamp(q+kq-c, 0, cfg.W-1)
					acc += kernel[base+kq] * row[sq]
				}
			}
			dst.Set(r, q, acc)
		}
	}
}

// integrateRows folds layer activity into the motion grid for rows
// [r0, r1): M = 0.9*M + 0.1*|L|, the temporal-integration step. One call
// covers one layer; the unbalanced post_up batches two layers on odd
// slabs, the balanced version integrates the just-written layer every
// slab, four row-bands in parallel. Both orders perform the identical
// per-pixel sequence, so the two programs compute the same scene.
func integrateRows(motion, layer *value.FloatGrid, r0, r1 int) {
	for r := r0; r < r1; r++ {
		lr := layer.Row(r)
		mr := motion.Row(r)
		for q := range mr {
			v := lr[q]
			if v < 0 {
				v = -v
			}
			mr[q] = 0.9*mr[q] + 0.1*v
		}
	}
}

// Response sums the motion grid — the detector output reported by the
// example programs.
func (s *Scene) Response() float64 {
	var sum float64
	for _, v := range s.Motion.Cells {
		sum += v
	}
	return sum
}

// rowBand returns the i-th of four contiguous row bands covering h rows.
func rowBand(h, i int) (int, int) {
	r0 := i * h / Quarters
	r1 := (i + 1) * h / Quarters
	return r0, r1
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reference runs the whole simulation sequentially in plain Go — the
// "original sequential version" every speedup is measured against, and the
// oracle the Delirium runs are compared to.
func Reference(cfg Config) *Scene {
	s := NewScene(cfg)
	for ts := 0; ts < cfg.Timesteps; ts++ {
		for q := 0; q < Quarters; q++ {
			moveTargets(cfg, s.Targets[q])
		}
		stampTargets(s)
		for slab := 0; slab < cfg.Slabs; slab++ {
			convolveRows(cfg, s.Kernel, s.Layers[slab], s.Layers[slab+1], 0, cfg.H)
			integrateRows(s.Motion, s.Layers[slab+1], 0, cfg.H)
		}
		s.Time++
	}
	return s
}

// Equal compares two scenes' numeric state exactly (the coordination model
// guarantees bit-identical results regardless of schedule).
func Equal(a, b *Scene) bool {
	if a.Time != b.Time || len(a.Layers) != len(b.Layers) {
		return false
	}
	for i := range a.Layers {
		if !gridsEqual(a.Layers[i], b.Layers[i]) {
			return false
		}
	}
	if !gridsEqual(a.Motion, b.Motion) {
		return false
	}
	for q := 0; q < Quarters; q++ {
		if len(a.Targets[q]) != len(b.Targets[q]) {
			return false
		}
		for i := range a.Targets[q] {
			if a.Targets[q][i] != b.Targets[q][i] {
				return false
			}
		}
	}
	return true
}

func gridsEqual(a, b *value.FloatGrid) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			return false
		}
	}
	return true
}
