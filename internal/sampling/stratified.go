package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/stats"
)

// DefaultAllocFloor is the default allocation floor: no non-empty
// stratum's allocation weight drops below this fraction of the largest
// one. It bounds how starved a stratum can get, which keeps the
// per-stratum variance estimates alive for Neyman re-allocation.
const DefaultAllocFloor = 0.1

// Stratified samples the timing-distance axis by deterministic
// stratified allocation instead of randomly: stratum t (one per timing
// distance, pi_t = f_T(t)) receives a fixed fraction of the draws, and
// within the stratum the center comes from the importance sampler's
// within-layer proposal. The campaign layer detects the Stratal
// interface and tracks the post-stratified estimator
// sum_t pi_t * mean_t, which removes both the timing-selection noise
// and the f_T/g_T weight variability from the estimate — allocation
// only decides how accurate each stratum's conditional mean is, never
// the estimate's expectation.
//
// The within-stratum support is the dilated candidate layer Ω_t: the
// sampler has no nominal component, so it never draws a center whose
// spot cannot reach the cones at distance t, and strata with an empty
// layer receive no draws. It therefore estimates SSF restricted to the
// layers' support. On the default attack that drops 22 of the 912
// candidate centers at t = 0 (0.048% of the nominal mass); the exact
// register SSF has no success at T = 0, so register answers lose
// nothing, and whether gate answers do is unchecked until an exact gate
// oracle exists.
//
// Draws carry the full likelihood ratio (pi_t / alloc_t) · w_cond, so a
// plain weighted mean over the stream reads the same restricted SSF (up
// to the deterministic schedule's O(1/N) allocation rounding); the
// stratified estimator is simply the lower-variance read of the same
// stream.
type Stratified struct {
	inner *Importance
	probs []float64 // pi_t = f_T(t)
	alloc []float64 // draw fraction per stratum; 0 on empty layers
	// allocDist drives the unforked Draw fallback (random stratum
	// choice by allocation); forked streams use the deterministic
	// largest-remainder schedule instead.
	allocDist *stats.Discrete
}

// NewStratified builds the stratified sampler on top of an importance
// proposal. The initial allocation is proportional to the importance
// sampler's timing distribution g_T (its best prior guess of where the
// variance lives), floor-clamped by DefaultAllocFloor.
func NewStratified(inner *Importance) (*Stratified, error) {
	if inner == nil {
		return nil, fmt.Errorf("sampling: stratified needs an importance proposal")
	}
	tr := inner.attack.TRange
	probs := make([]float64, tr)
	raw := make([]float64, tr)
	for t := 0; t < tr; t++ {
		probs[t] = inner.attack.TProb(t)
		if len(inner.layers[t]) > 0 {
			raw[t] = inner.tDist.Prob(t)
		}
	}
	return newStratifiedAlloc(inner, probs, raw, DefaultAllocFloor)
}

// newStratifiedAlloc floor-clamps and normalizes the raw allocation
// weights (zero entries mark empty strata and stay zero).
func newStratifiedAlloc(inner *Importance, probs, raw []float64, floor float64) (*Stratified, error) {
	maxRaw := 0.0
	nonEmpty := false
	for t, w := range raw {
		if w < 0 {
			return nil, fmt.Errorf("sampling: negative allocation weight %v at stratum %d", w, t)
		}
		if len(inner.layers[t]) == 0 && w != 0 {
			return nil, fmt.Errorf("sampling: allocation on empty stratum %d", t)
		}
		if len(inner.layers[t]) > 0 {
			nonEmpty = true
		}
		if w > maxRaw {
			maxRaw = w
		}
	}
	if !nonEmpty {
		return nil, fmt.Errorf("sampling: every stratum layer is empty")
	}
	alloc := make([]float64, len(raw))
	if maxRaw == 0 {
		// No signal at all: uniform over non-empty strata.
		for t := range alloc {
			if len(inner.layers[t]) > 0 {
				alloc[t] = 1
			}
		}
	} else {
		for t, w := range raw {
			if len(inner.layers[t]) == 0 {
				continue
			}
			if w < floor*maxRaw {
				w = floor * maxRaw
			}
			alloc[t] = w
		}
	}
	allocDist, err := stats.NewDiscrete(alloc)
	if err != nil {
		return nil, fmt.Errorf("sampling: stratified allocation: %w", err)
	}
	norm := make([]float64, len(alloc))
	for t := range norm {
		norm[t] = allocDist.Prob(t)
	}
	return &Stratified{inner: inner, probs: probs, alloc: norm, allocDist: allocDist}, nil
}

// Name implements Sampler.
func (s *Stratified) Name() string { return "stratified" }

// TimingProbs implements Sampler: the long-run fraction of draws per
// timing distance is the allocation.
func (s *Stratified) TimingProbs() []float64 {
	return append([]float64(nil), s.alloc...)
}

// NumStrata implements Stratal.
func (s *Stratified) NumStrata() int { return len(s.probs) }

// StratumProb implements Stratal.
func (s *Stratified) StratumProb(k int) float64 { return s.probs[k] }

// StratumOf implements Stratal.
func (s *Stratified) StratumOf(smp fault.Sample) int { return smp.T }

// ConditionalWeight implements Stratal: it strips the pi_t / alloc_t
// selection factor off the full draw weight, leaving the within-layer
// likelihood ratio the per-stratum estimator accumulates.
func (s *Stratified) ConditionalWeight(smp fault.Sample, w float64) float64 {
	return w * s.alloc[smp.T] / s.probs[smp.T]
}

// Draw implements Sampler for callers that do not Fork: the stratum is
// chosen randomly by allocation, which is unbiased but forfeits the
// deterministic schedule. Campaign runners always go through Fork.
func (s *Stratified) Draw(rng *rand.Rand) (fault.Sample, float64) {
	return s.drawIn(s.allocDist.Sample(rng.Float64()), rng)
}

// drawIn draws a center within stratum k using the importance
// proposal's within-layer mixture, returning the sample and its full
// likelihood ratio (pi_k / alloc_k) · f_P(c)/g(c|k).
func (s *Stratified) drawIn(k int, rng *rand.Rand) (fault.Sample, float64) {
	im := s.inner
	smp, j := im.drawCenter(k, rng)
	g := im.mixLayer/float64(len(im.layers[k])) + (1-im.mixLayer)*im.pDists[k].Prob(j)
	wCond := im.attack.CenterProb(smp.Center) / g
	return smp, wCond * s.probs[k] / s.alloc[k]
}

// Adapt implements Adaptive with Neyman allocation: the re-tuned draw
// fraction of stratum k is proportional to pi_k times the observed
// standard deviation of its conditional weighted terms, which
// minimizes the stratified estimator's variance for a fixed budget.
// Strata whose variance hasn't resolved yet (fewer than two draws, or
// zero observed deviation) fall back to their hit rate, and the floor
// clamp keeps every non-empty stratum explored. Allocation never
// affects unbiasedness — it only re-distributes draws — so no
// correction to past rounds is needed.
func (s *Stratified) Adapt(state AdaptState) (Sampler, error) {
	if state.Strata == nil || state.Strata.K() != len(s.probs) {
		return s, nil
	}
	raw := make([]float64, len(s.probs))
	signal := false
	for k := range raw {
		if len(s.inner.layers[k]) == 0 {
			continue
		}
		raw[k] = s.probs[k] * state.Strata.StratumStdDev(k)
		if raw[k] == 0 && state.Strata.Hits(k) > 0 && state.Strata.StratumN(k) > 0 {
			raw[k] = s.probs[k] * float64(state.Strata.Hits(k)) / float64(state.Strata.StratumN(k))
		}
		if raw[k] > 0 {
			signal = true
		}
	}
	if !signal {
		return s, nil
	}
	return newStratifiedAlloc(s.inner, s.probs, raw, DefaultAdaptFloor)
}

// Fork implements Forker: the returned stream draws strata on the
// deterministic largest-remainder schedule, each center from the rng
// its Draw is handed. A campaign forks one stream per block, so every
// block starts the schedule afresh and draws from the block's stream.
func (s *Stratified) Fork() Sampler {
	return &stratifiedStream{Stratified: s, def: make([]float64, len(s.alloc))}
}

// stratifiedStream is one forked campaign stream: the deficits of its
// stratum schedule over the base sampler, whose methods it shares but
// Draw. So a stream handed to a campaign is forked afresh like its base.
type stratifiedStream struct {
	*Stratified
	def []float64
}

// Draw implements Sampler: a center of the next scheduled stratum,
// drawn from rng.
func (st *stratifiedStream) Draw(rng *rand.Rand) (fault.Sample, float64) {
	return st.drawIn(st.next(), rng)
}

// next advances the largest-remainder schedule: every stratum's deficit
// grows by its allocation each step and the largest deficit (ties to
// the lowest index) is served. Over N steps stratum k is served
// alloc_k·N ± 1 times, and the schedule is a pure function of the
// allocation — no randomness involved.
func (st *stratifiedStream) next() int {
	alloc := st.alloc
	best := -1
	bestDef := 0.0
	for k := range alloc {
		if alloc[k] == 0 {
			continue
		}
		st.def[k] += alloc[k]
		if best < 0 || st.def[k] > bestDef {
			best = k
			bestDef = st.def[k]
		}
	}
	st.def[best]--
	return best
}
