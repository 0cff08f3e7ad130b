// Package sampling implements the sampling strategies of the paper's
// Fig 9: plain random sampling from the nominal attack distribution
// f_{T,P} and the full importance-sampling strategy g_{T,P} = g_T ·
// g_{P|T} built from the pre-characterization, plus a stratified
// sampler that allocates draws over the importance proposal's timing
// distances.
//
// Every sampler returns, with each draw, the likelihood ratio
// f(t,p)/g(t,p) so the Monte Carlo engine's weighted estimator stays
// unbiased for SSF = E_{T,P}[E].
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/par"
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
// state, such as the Stratified sampler's stratum schedule. Every
// campaign forks one private stream, which draws from the campaign's
// rng; the round loop seeds each block from its index, so an answer
// forks one stream per block, and parallel and resumed runs replay the
// exact same draws. Samplers without per-draw state simply don't
// implement Forker and are used as-is.
type Forker interface {
	Sampler
	// Fork returns a fresh stream of this sampler, which depends only
	// on the receiver.
	Fork() Sampler
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

// DefaultAdaptFloor is Adapt's clamping floor, as a fraction of the
// largest re-tuned weight: no stratum's probability or allocation is
// tilted below it times the maximum. It keeps every stratum explored so
// the estimator stays unbiased (a proposal that starves a stratum with
// true mass would never correct itself).
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

// MaxWeight returns the largest weight f/g the sampler can give a draw,
// up to rounding: 1 for the nominal distribution, 1/DefaultMixUniform
// for the importance sampler, adapted or not, whose defensive mixture
// keeps g ≥ DefaultMixUniform·f, and false for the stratified sampler
// (its weights carry the stratum allocation).
func MaxWeight(s Sampler) (float64, bool) {
	switch s := s.(type) {
	case *Random:
		return 1, true
	case *Importance:
		return 1 / s.mixUniform, true
	}
	return 0, false
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
	// mixUniform is the global defensive-mixture weight: each draw
	// comes from the nominal distribution f with this probability, so
	// no importance weight exceeds its reciprocal even off the
	// characterized support.
	mixUniform float64
	// mixLayer is the within-layer defensive mixture: after the
	// timing distance is drawn, the center comes from the uniform
	// distribution over Ω_t with this probability instead of the
	// correlation tilt. It bounds the weight of successes the
	// correlation heuristic misses while preserving the temporal
	// concentration.
	mixLayer float64

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
// the spot radius, so the weight of g as a *center* accumulates the
// correlation boost (where the lifetime matches) of every gate in g's
// spot rather than of g alone. The dilation radius is the technique's
// maximum spot radius.
func NewImportance(attack *fault.Attack, char *precharac.Characterization, nl *netlist.Netlist, place *placement.Placement, alpha, beta float64) (*Importance, error) {
	if alpha < 0 || beta < 0 {
		return nil, fmt.Errorf("sampling: negative alpha/beta (%v, %v)", alpha, beta)
	}
	spots := newCandidateSpots(attack, nl, place)
	layers, err := candidateLayers(attack, char, nl, spots)
	if err != nil {
		return nil, err
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
		attack:     attack,
		mixUniform: DefaultMixUniform,
		mixLayer:   DefaultMixLayer,
		layers:     layers,
		pDists:     make([]*stats.Discrete, attack.TRange),
		centerP:    make([][]float64, attack.TRange),
	}
	// Each timing distance's weights are one task, with the worker's own
	// scratch; a task writes only its own omega, ws and hashes entries.
	omega := make([]float64, attack.TRange)
	ws := make([][]float64, attack.TRange)
	hashes := make([]uint64, attack.TRange)
	par.Each(attack.TRange, func() func(int) {
		w := make([]float64, len(attack.Candidates))
		return func(t int) {
			layer := layers[t]
			if len(layer) == 0 {
				return
			}
			// Spot dilation: a strike centered at candidate i deposits
			// transients at every gate within its spot, so its weight
			// 1 + Σ α·excess(t, h) accumulates the boost of each
			// reachable gate h whose lifetime reaches β·t. Gates are
			// visited in id order, each candidate's own spot order; a
			// zero boost would leave every weight unchanged.
			for i := range w {
				w[i] = 1
			}
			for h := 0; h < nl.NumNodes(); h++ {
				id := netlist.NodeID(h)
				holders := spots.holding(id)
				if len(holders) == 0 || !(char.Lifetime(id) >= beta*float64(t)) {
					continue
				}
				if b := alpha * excess(t, id); b != 0 {
					for _, i := range holders {
						w[i] += b
					}
				}
			}
			x := make([]float64, len(layer))
			sum := 0.0
			hash := uint64(14695981039346656037) // FNV-1a over the weights' bits
			for j, g := range layer {
				x[j] = w[attack.CandidateIndex(g)]
				sum += x[j]
				hash = (hash ^ math.Float64bits(x[j])) * 1099511628211
			}
			omega[t] = sum
			ws[t], hashes[t] = x, hash
		}
	})
	// Past the cones' fixed point and the correlations' depth, timing
	// distances repeat both Ω_t and its weights (15 of 50 are distinct
	// on the default MPU). Each distinct pair gets one table and one
	// centerP row, which its repeats share, so a draw reads few, warm
	// tables. The tables are built on the workers; distinct lists them
	// in rising t, so the error returned is the lowest t's.
	var distinct []int
	same := make([]int, attack.TRange)
	for t, x := range ws {
		same[t] = t
		if x == nil {
			continue
		}
		if r := slices.IndexFunc(distinct, func(r int) bool {
			return hashes[r] == hashes[t] && slices.Equal(layers[r], layers[t]) && slices.Equal(ws[r], x)
		}); r >= 0 {
			same[t] = distinct[r]
		} else {
			distinct = append(distinct, t)
		}
	}
	errs := make([]error, len(distinct))
	par.Each(len(distinct), func() func(int) {
		return func(i int) {
			t := distinct[i]
			pd, err := stats.NewDiscrete(ws[t])
			if err != nil {
				errs[i] = err
				return
			}
			cp := make([]float64, len(attack.Candidates))
			for j, g := range layers[t] {
				cp[attack.CandidateIndex(g)] = pd.Prob(j)
			}
			im.pDists[t], im.centerP[t] = pd, cp
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for t, r := range same {
		im.pDists[t], im.centerP[t] = im.pDists[r], im.centerP[r]
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
	if rng.Float64() < im.mixUniform {
		s := im.attack.SampleNominal(rng)
		f := im.attack.Density(s)
		g := im.mixUniform*f + (1-im.mixUniform)*im.density(s)
		return s, f / g
	}
	t := im.tDist.Sample(rng.Float64())
	s, j := im.drawCenter(t, rng)
	// g_{P|T} of the drawn center is its layer entry's probability,
	// the value centerP holds for it.
	f := im.attack.Density(s)
	g := im.mixUniform*f + (1-im.mixUniform)*im.layerDensity(t, im.pDists[t].Prob(j))
	return s, f / g
}

// drawCenter draws a sample in the non-empty layer t from the
// within-layer mixture, returning it with the center's index in the
// layer.
func (im *Importance) drawCenter(t int, rng *rand.Rand) (fault.Sample, int) {
	layer := im.layers[t]
	var j int
	if rng.Float64() < im.mixLayer {
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
	mixed := im.mixLayer*pUnif + (1-im.mixLayer)*pC
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
// DefaultAdaptFloor times the largest rate so no stratum is starved;
// empty layers stay at zero (they cannot be drawn). Importance weights
// are computed from the re-tilted distribution itself, so every draw
// stays individually unbiased — combining rounds drawn under different
// proposals is plain multiple-distribution importance sampling.
//
// The result shares the immutable layers/center distributions with the
// receiver; only tDist is replaced. When no hits have been observed
// anywhere the receiver is returned unchanged (the observations carry
// no signal to tilt toward).
func (im *Importance) Adapt(state AdaptState) (Sampler, error) {
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
		} else if rates[t] < DefaultAdaptFloor*maxRate {
			rates[t] = DefaultAdaptFloor * maxRate
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

// candidateSpots holds every attack candidate's spot at the technique's
// maximum radius, spots[i] for candidate i in id order, and inverts it:
// the candidates whose spot holds node h are the candidate indices
// holders[start[h]:start[h+1]], rising. Without a placement a
// candidate's spot is the candidate itself.
type candidateSpots struct {
	spots   [][]netlist.NodeID
	start   []int32
	holders []int32
}

func newCandidateSpots(attack *fault.Attack, nl *netlist.Netlist, place *placement.Placement) candidateSpots {
	spots := make([][]netlist.NodeID, len(attack.Candidates))
	maxRadius := attack.Technique.Radius + attack.Technique.RadiusJitter
	// One radius query per candidate, on the set-up workers; a query
	// only reads the placement, and a task writes only its own spot.
	par.Each(len(spots), func() func(int) {
		return func(i int) {
			g := attack.Candidates[i]
			if place != nil {
				spots[i] = place.CombWithinRadius(g, maxRadius)
			} else {
				spots[i] = []netlist.NodeID{g}
			}
		}
	})
	n := nl.NumNodes()
	start := make([]int32, n+1)
	for _, spot := range spots {
		for _, h := range spot {
			start[h+1]++
		}
	}
	for h := 0; h < n; h++ {
		start[h+1] += start[h]
	}
	holders := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for i, spot := range spots {
		for _, h := range spot {
			holders[next[h]] = int32(i)
			next[h]++
		}
	}
	return candidateSpots{spots: spots, start: start, holders: holders}
}

// holding returns the indices of the candidates whose spot holds h.
func (s candidateSpots) holding(h netlist.NodeID) []int32 {
	return s.holders[s.start[h]:s.start[h+1]]
}

// candidateLayers intersects the characterization cones with the attack
// candidate set. layers[t] holds Ω_t: the candidate centers whose spot,
// fired at timing distance t, can deposit a transient into the cone's
// combinational gates at the paper's unroll index t. With a placement,
// the cone layer is dilated by the technique's maximum spot radius (a
// strike centered just outside the cone still reaches it); without one,
// the layer is the plain cone∩candidate intersection.
func candidateLayers(attack *fault.Attack, char *precharac.Characterization, nl *netlist.Netlist, spots candidateSpots) ([][]netlist.NodeID, error) {
	if attack.TRange-1 > char.MaxUnrollIndex() {
		return nil, fmt.Errorf("sampling: TRange %d exceeds characterized unroll depth %d", attack.TRange, char.MaxUnrollIndex())
	}
	layers := make([][]netlist.NodeID, attack.TRange)
	inCone := make([]bool, nl.NumNodes())
	var prev []netlist.NodeID
	for t := range layers {
		// Past the cones' fixed point the cone layer repeats, and so
		// does Ω_t.
		cone := char.CombLayer(nl, t)
		if t > 0 && slices.Equal(cone, prev) {
			layers[t] = layers[t-1]
			continue
		}
		prev = cone
		for _, h := range cone {
			inCone[h] = true
		}
		for i, g := range attack.Candidates {
			if inCone[g] || slices.ContainsFunc(spots.spots[i], func(h netlist.NodeID) bool { return inCone[h] }) {
				layers[t] = append(layers[t], g)
			}
		}
		for _, h := range cone {
			inCone[h] = false
		}
	}
	return layers, nil
}
