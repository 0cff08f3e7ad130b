// Package fault implements the paper's holistic fault-injection model:
// the attack timing distance t = Tt − Te and the technique parameter
// vector p = [g, r] (radiation center gate and radius) are treated as
// samples of random variables (T, P) following a distribution f_{T,P}
// determined by the attack technique's temporal accuracy and parameter
// variation, and by the attack strategy's spatial targeting.
package fault

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/timingsim"
)

// Radiation characterizes a radiation-based injection technique
// (laser/heavy-ion class). The physical mechanism matches soft-error
// particle strikes, which is why the gate-level model reuses the SEU
// transient flow.
type Radiation struct {
	// Radius is the expected radiated radius in cell pitches;
	// RadiusJitter is the half-width of its uniform variation.
	Radius, RadiusJitter float64
	// PulseWidth is the expected deposited transient width (ps);
	// PulseJitter is the half-width of its uniform variation.
	PulseWidth, PulseJitter float64
	// ImpactCycles is the number of consecutive cycles a single
	// injection disturbs (the paper assumes 1 but notes the framework
	// "can easily incorporate multi-cycle impact"). 0 is treated as 1.
	ImpactCycles int
	// ClockPeriod bounds the uniform strike instant within the
	// injection cycle.
	ClockPeriod float64
}

// DefaultRadiation returns a technique matched to the default delay
// model: pulses wide enough to survive a few logic levels, a spot
// covering a handful of cells.
func DefaultRadiation() Radiation {
	return Radiation{
		Radius:       1.5,
		RadiusJitter: 0.6,
		PulseWidth:   260,
		PulseJitter:  140,
		ClockPeriod:  600,
	}
}

// SampleRadius draws a radiated radius.
func (r Radiation) SampleRadius(rng *rand.Rand) float64 {
	return r.Radius + (rng.Float64()*2-1)*r.RadiusJitter
}

// SampleWidth draws a transient pulse width.
func (r Radiation) SampleWidth(rng *rand.Rand) float64 {
	w := r.PulseWidth + (rng.Float64()*2-1)*r.PulseJitter
	if w < 0 {
		w = 0
	}
	return w
}

// SampleTime draws the strike instant within the injection cycle.
func (r Radiation) SampleTime(rng *rand.Rand) float64 {
	return rng.Float64() * r.ClockPeriod
}

// Attack is the full nominal attack distribution f_{T,P}: what the
// attacker's technique and strategy imply before any framework-side
// importance sampling. T is uniform over [0, TRange) timing distances
// (temporal accuracy); the strike center is drawn from CenterDist over
// Candidates (spatial accuracy); radius, pulse width, and strike instant
// come from the technique.
type Attack struct {
	Name      string
	TRange    int
	Technique Radiation
	// Candidates is the gate population the strike center ranges
	// over (e.g. a sub-block of the MPU).
	Candidates []netlist.NodeID
	// CenterDist is the distribution over Candidates; uniform
	// spatial accuracy is the default (nil).
	CenterDist *stats.Discrete

	// centerIdx[id] is id's index in Candidates (the last one if it
	// repeats), -1 for a node that is not a candidate.
	centerIdx []int32
}

// NewAttack validates and indexes an attack description.
func NewAttack(name string, tRange int, tech Radiation, candidates []netlist.NodeID, centerDist *stats.Discrete) (*Attack, error) {
	if tRange < 1 {
		return nil, fmt.Errorf("fault: TRange = %d", tRange)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("fault: no candidate gates")
	}
	if centerDist != nil && centerDist.Len() != len(candidates) {
		return nil, fmt.Errorf("fault: center distribution over %d, %d candidates", centerDist.Len(), len(candidates))
	}
	if slices.Min(candidates) < 0 {
		return nil, fmt.Errorf("fault: invalid candidate %d", slices.Min(candidates))
	}
	a := &Attack{
		Name: name, TRange: tRange, Technique: tech,
		Candidates: candidates, CenterDist: centerDist,
		centerIdx: make([]int32, slices.Max(candidates)+1),
	}
	for i := range a.centerIdx {
		a.centerIdx[i] = -1
	}
	for i, id := range candidates {
		a.centerIdx[id] = int32(i)
	}
	return a, nil
}

// CandidateIndex returns the index of id in Candidates, or -1 when id
// is not a candidate.
func (a *Attack) CandidateIndex(id netlist.NodeID) int {
	if id < 0 || int(id) >= len(a.centerIdx) {
		return -1
	}
	return int(a.centerIdx[id])
}

// Sample is one draw of the attack parameters.
type Sample struct {
	// T is the timing distance: the injection cycle is Tt - T.
	T int
	// Center is the struck gate the radiation spot centers on.
	Center netlist.NodeID
	// Radius, Width, Time are the technique parameters of this shot.
	Radius, Width, Time float64
	// Cycles is the number of consecutive disturbed cycles (>= 1).
	Cycles int
}

// SampleNominal draws (t, p) from f_{T,P} itself — this is random
// sampling in the paper's comparison.
func (a *Attack) SampleNominal(rng *rand.Rand) Sample {
	var center netlist.NodeID
	if a.CenterDist != nil {
		center = a.Candidates[a.CenterDist.Sample(rng.Float64())]
	} else {
		center = a.Candidates[rng.Intn(len(a.Candidates))]
	}
	return Sample{
		T:      rng.Intn(a.TRange),
		Center: center,
		Radius: a.Technique.SampleRadius(rng),
		Width:  a.Technique.SampleWidth(rng),
		Time:   a.Technique.SampleTime(rng),
		Cycles: a.Technique.Cycles(),
	}
}

// Cycles returns the technique's per-injection impact length (>= 1).
func (r Radiation) Cycles() int {
	if r.ImpactCycles < 1 {
		return 1
	}
	return r.ImpactCycles
}

// TProb returns f_T(t).
func (a *Attack) TProb(t int) float64 {
	if t < 0 || t >= a.TRange {
		return 0
	}
	return 1 / float64(a.TRange)
}

// CenterProb returns f_P's mass on the given center gate.
func (a *Attack) CenterProb(center netlist.NodeID) float64 {
	i := a.CandidateIndex(center)
	if i < 0 {
		return 0
	}
	if a.CenterDist != nil {
		return a.CenterDist.Prob(i)
	}
	return 1 / float64(len(a.Candidates))
}

// Density returns f_{T,P}(t, center) over the discrete part of the
// parameter space. The continuous technique parameters (radius, width,
// instant) are drawn identically under every sampling strategy, so
// their densities cancel in the importance weights and are omitted.
func (a *Attack) Density(s Sample) float64 {
	return a.TProb(s.T) * a.CenterProb(s.Center)
}

// ChargeSharingDecay is the fraction of the deposit width lost at the
// spot's edge: a gate at distance d from the center receives
// Width · (1 − ChargeSharingDecay · d/r).
const ChargeSharingDecay = 0.45

// Strike materializes the gate-level strike for a sample: the struck
// gates are the combinational cells placed within the radiated radius,
// each receiving a deposit that decays with its distance from the spot
// center (charge sharing).
func (a *Attack) Strike(p *placement.Placement, s Sample) timingsim.Strike {
	gates := p.CombWithinRadius(s.Center, s.Radius)
	dists := make([]float64, len(gates))
	for i, g := range gates {
		dists[i] = p.Dist(g, s.Center)
	}
	strike, _ := a.StrikeFrom(s, gates, dists, make([]float64, 0, len(gates)))
	return strike
}

// StrikeFrom assembles the same Strike as Strike from a precomputed
// spot — the struck gates and their placed distances from s.Center, as
// placement.SpotIndex.CombWithin returns them — reusing widthsBuf as
// the width scratch. The returned slice is the grown scratch for the
// caller to keep.
func (a *Attack) StrikeFrom(s Sample, gates []netlist.NodeID, dists, widthsBuf []float64) (timingsim.Strike, []float64) {
	widths := widthsBuf[:0]
	for _, d := range dists {
		frac := 1.0
		if s.Radius > 0 {
			frac = 1 - ChargeSharingDecay*d/s.Radius
		}
		widths = append(widths, s.Width*frac) //alloc-ok (reused scratch buffer)
	}
	return timingsim.Strike{
		Gates:  gates,
		Time:   s.Time,
		Width:  s.Width,
		Widths: widths,
	}, widths
}

// --- Spatial-accuracy helpers (Fig 11b sweep) ---------------------------

// ConcentratedCenters returns a candidate subset for an attacker whose
// spatial accuracy keeps the spot within the frac·N placed-distance
// nearest gates of the target (frac = 1 is the uniform worst case;
// frac → 0 approaches the delta function at the target).
func ConcentratedCenters(p *placement.Placement, all []netlist.NodeID, target netlist.NodeID, frac float64) []netlist.NodeID {
	if frac >= 1 {
		return all
	}
	n := int(frac * float64(len(all)))
	if n < 1 {
		n = 1
	}
	type gd struct {
		id netlist.NodeID
		d  float64
	}
	ds := make([]gd, len(all))
	for i, id := range all {
		ds[i] = gd{id, p.Dist(id, target)}
	}
	// Selection by partial sort (n is usually small).
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(ds); j++ {
			if ds[j].d < ds[min].d || (ds[j].d == ds[min].d && ds[j].id < ds[min].id) {
				min = j
			}
		}
		ds[i], ds[min] = ds[min], ds[i]
	}
	out := make([]netlist.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = ds[i].id
	}
	return out
}
