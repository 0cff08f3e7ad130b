package fault

import (
	"fmt"
	"math"
	"slices"
)

// ClockGlitch characterizes a clock-modification technique: for one
// cycle the capture edge arrives early by a glitch depth (ps). Unlike a
// radiation spot, the effect is global — every register whose data path
// is longer than the shortened period captures stale data — so the
// technique parameter vector is just the depth, with cycle-to-cycle
// variation.
type ClockGlitch struct {
	// Depth is the expected period reduction (ps); a shot's depth is
	// uniform over [Depth − DepthJitter, Depth + DepthJitter], clipped
	// to [0, ClockPeriod].
	Depth, DepthJitter float64
	// ClockPeriod is the nominal cycle length.
	ClockPeriod float64
}

// DefaultClockGlitch returns a glitcher that cuts roughly half of the
// default 600 ps cycle, with substantial shot-to-shot variation.
func DefaultClockGlitch() ClockGlitch {
	return ClockGlitch{Depth: 300, DepthJitter: 150, ClockPeriod: 600}
}

// DepthPiece is a part of a glitch's depth distribution: Mass is its
// probability and Depth a depth inside it.
type DepthPiece struct {
	Depth, Mass float64
}

// DepthPieces splits the depth distribution at the cuts (in any order;
// those outside (0, ClockPeriod) are ignored) and returns the pieces of
// positive mass in rising depth order. The mass clipped below 0 or
// above ClockPeriod is a point mass at that bound; each piece between
// two cuts carries the midpoint of its part of the jitter range. So a
// quantity that changes only at the cuts takes one value per piece.
// A piece whose midpoint does not rise above its left neighbour's
// depth (cuts closer than the float spacing) folds into that neighbour.
func (c ClockGlitch) DepthPieces(cuts []float64) []DepthPiece {
	if c.DepthJitter == 0 {
		return []DepthPiece{{Depth: min(max(c.Depth, 0), c.ClockPeriod), Mass: 1}}
	}
	lo, hi := c.Depth-c.DepthJitter, c.Depth+c.DepthJitter
	// cdf is the unclipped distribution's, written so that no finite
	// input overflows into NaN.
	cdf := func(x float64) float64 { return min(max(((x-c.Depth)/c.DepthJitter+1)/2, 0), 1) }
	bounds := []float64{0, c.ClockPeriod}
	for _, x := range cuts {
		if x > 0 && x < c.ClockPeriod {
			bounds = append(bounds, x)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)

	var out []DepthPiece
	add := func(depth, mass float64) {
		if n := len(out); n > 0 && depth <= out[n-1].Depth {
			out[n-1].Mass += mass
		} else if mass > 0 {
			out = append(out, DepthPiece{Depth: depth, Mass: mass})
		}
	}
	add(0, cdf(0))
	for i := 1; i < len(bounds); i++ {
		a, b := max(bounds[i-1], lo), min(bounds[i], hi)
		add(min(max(a+(b-a)/2, bounds[i-1]), bounds[i]), cdf(bounds[i])-cdf(bounds[i-1]))
	}
	add(c.ClockPeriod, 1-cdf(c.ClockPeriod))
	return out
}

// GlitchAttack is the nominal attack distribution of a clock-glitch
// attack: uniform timing distance over [0, TRange) and the technique's
// depth variation.
type GlitchAttack struct {
	Name      string
	TRange    int
	Technique ClockGlitch
}

// NewGlitchAttack validates a glitch attack description.
func NewGlitchAttack(name string, tRange int, tech ClockGlitch) (*GlitchAttack, error) {
	if tRange < 1 {
		return nil, fmt.Errorf("fault: TRange = %d", tRange)
	}
	if !(tech.ClockPeriod > 0) || math.IsInf(tech.ClockPeriod, 0) {
		return nil, fmt.Errorf("fault: clock period %v", tech.ClockPeriod)
	}
	if math.IsNaN(tech.Depth) || math.IsInf(tech.Depth, 0) || !(tech.DepthJitter >= 0) || math.IsInf(tech.DepthJitter, 0) {
		return nil, fmt.Errorf("fault: glitch depth %v ± %v", tech.Depth, tech.DepthJitter)
	}
	return &GlitchAttack{Name: name, TRange: tRange, Technique: tech}, nil
}

// GlitchSample is one point of the glitch parameters.
type GlitchSample struct {
	// T is the timing distance (injection cycle = Tt − T).
	T int
	// Depth is this shot's period reduction.
	Depth float64
}
