// Package sampling implements the three sampling strategies the paper
// compares (Fig 9): plain random sampling from the nominal attack
// distribution f_{T,P}, uniform sampling restricted to the responding
// signals' fanin/fanout cones, and the full importance-sampling strategy
// g_{T,P} = g_T · g_{P|T} built from the pre-characterization.
//
// Every sampler returns, with each draw, the likelihood ratio
// f(t,p)/g(t,p) so the Monte Carlo engine's weighted estimator stays
// unbiased for SSF = E_{T,P}[E].
package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/stats"
)

// Sampler draws attack parameter samples together with their importance
// weights.
type Sampler interface {
	// Name identifies the strategy in reports.
	Name() string
	// Draw returns one sample and its likelihood ratio f/g.
	Draw(rng *rand.Rand) (fault.Sample, float64)
	// TimingProbs returns g_T as a probability per timing distance
	// (Fig 8(a)). For allocation-driven samplers this is the long-run
	// fraction of draws per timing distance; it always sums to 1.
	TimingProbs() []float64
}

// Forker is implemented by samplers that carry per-campaign mutable
// state, such as the Stratified sampler's per-stratum substreams.
// Campaign runners fork one private stream per (campaign, shard) using
// the shard's deterministically derived seed, so parallel and resumed
// runs replay the exact same streams. Samplers without per-draw state
// simply don't implement Forker and are used as-is.
type Forker interface {
	Sampler
	// Fork returns an independent stream of this sampler. The result
	// must depend only on (receiver, seed).
	Fork(seed int64) Sampler
}

// Stratal is implemented by samplers that partition the attack space
// into strata with known probabilities under the nominal distribution
// f. Campaigns track a per-stratum estimator for them (the stratified
// estimate sum_k pi_k * mean_k replaces the plain weighted mean).
type Stratal interface {
	Sampler
	// NumStrata returns the number of strata K.
	NumStrata() int
	// StratumProb returns pi_k, the nominal probability of stratum k.
	StratumProb(k int) float64
	// StratumOf maps a drawn sample to its stratum index.
	StratumOf(s fault.Sample) int
	// ConditionalWeight converts the full draw weight returned by Draw
	// into the within-stratum conditional weight the stratified
	// estimator accumulates (it strips the pi_k / allocation_k factor).
	ConditionalWeight(s fault.Sample, w float64) float64
}

// AdaptState carries the accumulated observations an Adaptive sampler
// re-tunes from between adaptive rounds. All fields come from merged
// campaign state, so the adapted proposal is a pure function of the
// checkpoint and resumed runs replay it bit-identically.
type AdaptState struct {
	// Draws and Hits tally samples and raw successes per timing
	// distance (index t < TRange).
	Draws, Hits []int
	// Strata is the per-stratum estimator when the campaign tracks one
	// (nil otherwise); allocation tuning reads its per-stratum
	// variances.
	Strata *stats.Stratified
	// Floor is the clamping floor, as a fraction of the largest
	// re-tuned weight: no stratum's probability or allocation is tilted
	// below Floor times the maximum. It keeps every stratum explored so
	// the estimator stays unbiased (a proposal that starves a stratum
	// with true mass would never correct itself).
	Floor float64
}

// Adaptive is implemented by samplers that can re-tune themselves from
// observed outcomes between adaptive rounds. Adapt must be
// deterministic in (receiver, state) and must preserve Name() so
// campaigns under the old and new proposal still merge.
type Adaptive interface {
	Sampler
	// Adapt returns a re-tuned copy (the receiver is not modified), or
	// the receiver itself when the observations carry no signal yet.
	Adapt(state AdaptState) (Sampler, error)
}

// DefaultAdaptFloor is the default weight-floor fraction for Adapt.
const DefaultAdaptFloor = 0.02

// --- Random --------------------------------------------------------------

// Random samples directly from the nominal attack distribution; every
// weight is 1. This is the paper's baseline.
type Random struct {
	Attack *fault.Attack
}

// Name implements Sampler.
func (r *Random) Name() string { return "random" }

// Draw implements Sampler.
func (r *Random) Draw(rng *rand.Rand) (fault.Sample, float64) {
	return r.Attack.SampleNominal(rng), 1.0
}

// TimingProbs implements Sampler.
func (r *Random) TimingProbs() []float64 {
	out := make([]float64, r.Attack.TRange)
	for i := range out {
		out[i] = 1 / float64(r.Attack.TRange)
	}
	return out
}

// --- Fanin/fanout-cone sampling ------------------------------------------

// Cone samples the timing distance uniformly but restricts strike
// centers to the gates of the responding signals' fanin/fanout cones at
// the sampled depth — the paper's intermediate strategy ("Fanin Cone
// Sampling" in Fig 9). Strikes centered outside the cones are assumed
// ineffective (their indicator is 0), which holds up to spot-radius
// boundary effects.
type Cone struct {
	attack *fault.Attack
	// layers[i] is Ω_i: cone gates at unroll depth i that are also
	// attack candidates.
	layers [][]netlist.NodeID
	tDist  *stats.Discrete
}

// NewCone builds the cone-restricted sampler from a characterization.
// place, when non-nil, dilates the cone layers by the technique's spot
// radius so that any center whose spot reaches the cone stays in the
// support.
func NewCone(attack *fault.Attack, char *precharac.Characterization, nl *netlist.Netlist, place *placement.Placement) (*Cone, error) {
	layers, err := candidateLayers(attack, char, nl, place)
	if err != nil {
		return nil, err
	}
	// Timing distances whose layer is empty can never be drawn; ones
	// with gates share the probability uniformly.
	w := make([]float64, attack.TRange)
	for t := range w {
		if len(layers[t]) > 0 {
			w[t] = 1
		}
	}
	tDist, err := stats.NewDiscrete(w)
	if err != nil {
		return nil, fmt.Errorf("sampling: no cone gates within TRange: %w", err)
	}
	return &Cone{attack: attack, layers: layers, tDist: tDist}, nil
}

// Name implements Sampler.
func (c *Cone) Name() string { return "fanin-cone" }

// Draw implements Sampler.
func (c *Cone) Draw(rng *rand.Rand) (fault.Sample, float64) {
	t := c.tDist.Sample(rng.Float64())
	layer := c.layers[t]
	center := layer[rng.Intn(len(layer))]
	s := fault.Sample{
		T:      t,
		Center: center,
		Radius: c.attack.Technique.SampleRadius(rng),
		Width:  c.attack.Technique.SampleWidth(rng),
		Time:   c.attack.Technique.SampleTime(rng),
		Cycles: c.attack.Technique.Cycles(),
	}
	g := c.tDist.Prob(t) * (1 / float64(len(layer)))
	return s, c.attack.Density(s) / g
}

// TimingProbs implements Sampler.
func (c *Cone) TimingProbs() []float64 {
	out := make([]float64, c.attack.TRange)
	for i := range out {
		out[i] = c.tDist.Prob(i)
	}
	return out
}

// --- Importance sampling ---------------------------------------------------

// Importance implements the paper's pre-characterization-driven
// distribution:
//
//	g_T(t=i)      ∝ ω_i = Σ_{g∈Ω_i} (1 + α·Corr_i(g, rs)·δ(L(g) ≥ β·i))
//	g_{P|T}(g|i)  ∝       1 + α·Corr_i(g, rs)·δ(L(g) ≥ β·i)   for g ∈ Ω_i
//
// where Ω_i is the candidate gates in the responding signals' cones at
// unroll depth i, Corr is the bit-flip correlation, and L(g) is the
// effective error lifetime of the registers latching g.
type Importance struct {
	attack *fault.Attack
	// Alpha scales how strongly correlation concentrates the mass;
	// Beta scales the lifetime requirement per unroll depth.
	Alpha, Beta float64
	// MixUniform is the global defensive-mixture weight: each draw
	// comes from the nominal distribution f with this probability, so
	// no importance weight exceeds its reciprocal even off the
	// characterized support. 0 disables it.
	MixUniform float64
	// MixLayer is the within-layer defensive mixture: after the
	// timing distance is drawn, the center comes from the uniform
	// distribution over Ω_t with this probability instead of the
	// correlation tilt. It bounds the weight of successes the
	// correlation heuristic misses while preserving the temporal
	// concentration. 0 disables it.
	MixLayer float64

	layers [][]netlist.NodeID
	tDist  *stats.Discrete
	pDists []*stats.Discrete // per timing distance, over layers[t]
	// centerP[t][i] is g_{P|T}(Candidates[i] | t) under the
	// correlation tilt: 0 off Ω_t, nil for an empty layer.
	centerP [][]float64
}

// DefaultAlpha and DefaultBeta are the configuration used by the
// experiments; the ablation bench sweeps both.
const (
	DefaultAlpha = 50.0
	DefaultBeta  = 1.0
	// DefaultMixUniform is the global safety mixture.
	DefaultMixUniform = 0.05
	// DefaultMixLayer is the within-layer defensive mixture.
	DefaultMixLayer = 0.35
)

// NewImportance builds the paper's sampler from a characterization.
//
// place, when non-nil, enables spatial dilation of the correlation: a
// strike centered at gate g deposits transients at every gate within
// the spot radius, so the weight of g as a *center* uses the maximum
// correlation (and matching lifetime) over g's spot neighbourhood
// rather than g alone. The dilation radius is the technique's maximum
// spot radius.
func NewImportance(attack *fault.Attack, char *precharac.Characterization, nl *netlist.Netlist, place *placement.Placement, alpha, beta float64) (*Importance, error) {
	if alpha < 0 || beta < 0 {
		return nil, fmt.Errorf("sampling: negative alpha/beta (%v, %v)", alpha, beta)
	}
	layers, err := candidateLayers(attack, char, nl, place)
	if err != nil {
		return nil, err
	}
	maxRadius := attack.Technique.Radius + attack.Technique.RadiusJitter
	// Spot neighbourhoods are timing-independent: precompute them once
	// instead of once per (t, gate).
	var spot map[netlist.NodeID][]netlist.NodeID
	if place != nil {
		spot = make(map[netlist.NodeID][]netlist.NodeID, len(attack.Candidates))
		for _, g := range attack.Candidates {
			spot[g] = place.CombWithinRadius(g, maxRadius)
		}
	}
	// Excess correlation over the chance baseline: a node switching
	// every cycle overlaps the responding signal's switches at
	// roughly its switch density even when unrelated; only the excess
	// identifies related logic.
	base := char.SwitchDensity()
	excess := func(t int, h netlist.NodeID) float64 {
		c := (char.CorrComb(t, h) - base) / (1 - base)
		if c < 0 {
			return 0
		}
		return c
	}
	im := &Importance{
		attack: attack, Alpha: alpha, Beta: beta,
		MixUniform: DefaultMixUniform,
		MixLayer:   DefaultMixLayer,
		layers:     layers,
		pDists:     make([]*stats.Discrete, attack.TRange),
		centerP:    make([][]float64, attack.TRange),
	}
	omega := make([]float64, attack.TRange)
	for t := 0; t < attack.TRange; t++ {
		layer := layers[t]
		if len(layer) == 0 {
			continue
		}
		ws := make([]float64, len(layer))
		sum := 0.0
		for j, g := range layer {
			w := 1.0
			if place != nil {
				// Spot dilation: a strike centered at g deposits
				// transients at every gate within the spot, so
				// its weight accumulates the boost of each
				// reachable gate.
				for _, h := range spot[g] {
					if char.Lifetime(h) >= beta*float64(t) {
						w += alpha * excess(t, h)
					}
				}
			} else if char.Lifetime(g) >= beta*float64(t) {
				w += alpha * excess(t, g)
			}
			ws[j] = w
			sum += w
		}
		omega[t] = sum
		pd, err := stats.NewDiscrete(ws)
		if err != nil {
			return nil, err
		}
		im.pDists[t] = pd
		cp := make([]float64, len(attack.Candidates))
		for j, g := range layer {
			cp[attack.CandidateIndex(g)] = pd.Prob(j)
		}
		im.centerP[t] = cp
	}
	tDist, err := stats.NewDiscrete(omega)
	if err != nil {
		return nil, fmt.Errorf("sampling: empty importance distribution: %w", err)
	}
	im.tDist = tDist
	return im, nil
}

// Name implements Sampler.
func (im *Importance) Name() string { return "importance" }

// Draw implements Sampler.
func (im *Importance) Draw(rng *rand.Rand) (fault.Sample, float64) {
	if im.MixUniform > 0 && rng.Float64() < im.MixUniform {
		s := im.attack.SampleNominal(rng)
		f := im.attack.Density(s)
		g := im.MixUniform*f + (1-im.MixUniform)*im.density(s)
		return s, f / g
	}
	t := im.tDist.Sample(rng.Float64())
	s, j := im.drawCenter(t, rng)
	// g_{P|T} of the drawn center is its layer entry's probability,
	// the value centerP holds for it.
	f := im.attack.Density(s)
	g := im.MixUniform*f + (1-im.MixUniform)*im.layerDensity(t, im.pDists[t].Prob(j))
	return s, f / g
}

// drawCenter draws a sample in the non-empty layer t from the
// within-layer mixture, returning it with the center's index in the
// layer.
func (im *Importance) drawCenter(t int, rng *rand.Rand) (fault.Sample, int) {
	layer := im.layers[t]
	var j int
	if im.MixLayer > 0 && rng.Float64() < im.MixLayer {
		j = rng.Intn(len(layer))
	} else {
		j = im.pDists[t].Sample(rng.Float64())
	}
	return fault.Sample{
		T:      t,
		Center: layer[j],
		Radius: im.attack.Technique.SampleRadius(rng),
		Width:  im.attack.Technique.SampleWidth(rng),
		Time:   im.attack.Technique.SampleTime(rng),
		Cycles: im.attack.Technique.Cycles(),
	}, j
}

// density returns the pre-characterization part of g at a sample: the
// layer distribution g_T times the within-layer mixture over centers.
func (im *Importance) density(s fault.Sample) float64 {
	if s.T < 0 || s.T >= len(im.centerP) || im.centerP[s.T] == nil {
		return 0
	}
	return im.layerDensity(s.T, im.centerProb(s.T, s.Center))
}

// layerDensity is density at a center of the non-empty layer t whose
// correlation-tilt probability g_{P|T} is pC.
func (im *Importance) layerDensity(t int, pC float64) float64 {
	layerN := float64(len(im.layers[t]))
	var pUnif float64
	if pC > 0 {
		// Center is in Ω_t; the uniform component covers it too.
		pUnif = 1 / layerN
	}
	mixed := im.MixLayer*pUnif + (1-im.MixLayer)*pC
	return im.tDist.Prob(t) * mixed
}

// TimingProbs implements Sampler.
func (im *Importance) TimingProbs() []float64 {
	out := make([]float64, im.attack.TRange)
	for i := range out {
		out[i] = im.tDist.Prob(i)
	}
	return out
}

// Adapt implements Adaptive: it re-tilts the timing-distance
// distribution g_T toward the observed per-stratum hit rates, keeping
// the within-layer center distributions untouched. The new weight of a
// non-empty timing distance is its raw hit rate, floor-clamped at
// state.Floor times the largest rate so no stratum is starved; empty
// layers stay at zero (they cannot be drawn). Importance weights are
// computed from the re-tilted distribution itself, so every draw stays
// individually unbiased — combining rounds drawn under different
// proposals is plain multiple-distribution importance sampling.
//
// The result shares the immutable layers/center distributions with the
// receiver; only tDist is replaced. When no hits have been observed
// anywhere the receiver is returned unchanged (the observations carry
// no signal to tilt toward).
func (im *Importance) Adapt(state AdaptState) (Sampler, error) {
	floor := state.Floor
	if floor <= 0 {
		floor = DefaultAdaptFloor
	}
	rates := make([]float64, im.attack.TRange)
	maxRate := 0.0
	for t := range rates {
		if len(im.layers[t]) == 0 || t >= len(state.Draws) || t >= len(state.Hits) {
			continue
		}
		if state.Draws[t] > 0 {
			rates[t] = float64(state.Hits[t]) / float64(state.Draws[t])
		}
		if rates[t] > maxRate {
			maxRate = rates[t]
		}
	}
	if maxRate == 0 {
		return im, nil
	}
	for t := range rates {
		if len(im.layers[t]) == 0 {
			rates[t] = 0
		} else if rates[t] < floor*maxRate {
			rates[t] = floor * maxRate
		}
	}
	tDist, err := stats.NewDiscrete(rates)
	if err != nil {
		return nil, fmt.Errorf("sampling: adapt: %w", err)
	}
	out := *im
	out.tDist = tDist
	return &out, nil
}

// CenterProb returns g_{P|T}(center | t) — exported for tests and the
// Fig 8 driver.
func (im *Importance) CenterProb(t int, center netlist.NodeID) float64 {
	if t < 0 || t >= len(im.centerP) || im.centerP[t] == nil {
		return 0
	}
	return im.centerProb(t, center)
}

// centerProb is CenterProb for a timing distance with a non-empty
// layer.
func (im *Importance) centerProb(t int, center netlist.NodeID) float64 {
	i := im.attack.CandidateIndex(center)
	if i < 0 {
		return 0
	}
	return im.centerP[t][i]
}

// candidateLayers intersects the characterization cones with the attack
// candidate set. layers[t] holds Ω_t: the candidate centers whose spot,
// fired at timing distance t, can deposit a transient into the cone's
// combinational gates at the paper's unroll index t. With a placement,
// the cone layer is dilated by the technique's maximum spot radius (a
// strike centered just outside the cone still reaches it); without one,
// the layer is the plain cone∩candidate intersection.
func candidateLayers(attack *fault.Attack, char *precharac.Characterization, nl *netlist.Netlist, place *placement.Placement) ([][]netlist.NodeID, error) {
	if attack.TRange-1 > char.MaxUnrollIndex() {
		return nil, fmt.Errorf("sampling: TRange %d exceeds characterized unroll depth %d", attack.TRange, char.MaxUnrollIndex())
	}
	maxRadius := attack.Technique.Radius + attack.Technique.RadiusJitter
	// Spot neighbourhoods are timing-independent; compute them once.
	var spot map[netlist.NodeID][]netlist.NodeID
	if place != nil {
		spot = make(map[netlist.NodeID][]netlist.NodeID, len(attack.Candidates))
		for _, g := range attack.Candidates {
			spot[g] = place.CombWithinRadius(g, maxRadius)
		}
	}
	layers := make([][]netlist.NodeID, attack.TRange)
	for t := 0; t < attack.TRange; t++ {
		inCone := make(map[netlist.NodeID]bool)
		for _, g := range char.CombLayer(nl, t) {
			inCone[g] = true
		}
		for _, g := range attack.Candidates {
			ok := inCone[g]
			if !ok && place != nil {
				for _, h := range spot[g] {
					if inCone[h] {
						ok = true
						break
					}
				}
			}
			if ok {
				layers[t] = append(layers[t], g)
			}
		}
	}
	return layers, nil
}
