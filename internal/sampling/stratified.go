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

// strataSeedMix decorrelates the per-stratum substream seeds (the
// 64-bit golden-ratio multiplier).
const strataSeedMix = -7046029254386353131 // 0x9E3779B97F4A7C15 as int64

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
// Like Cone, the within-stratum support is the dilated candidate layer
// Ω_t: centers whose spot cannot reach the cone at distance t are
// assumed ineffective (indicator 0), so strata with an empty layer have
// a conditional mean of exactly zero and receive no draws.
//
// Draws carry the full likelihood ratio (pi_t / alloc_t) · w_cond, so a
// plain weighted mean over the stream is also unbiased (up to the
// deterministic schedule's O(1/N) allocation rounding); the stratified
// estimator is simply the lower-variance read of the same stream.
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

// Allocation returns a copy of the per-stratum draw fractions.
func (s *Stratified) Allocation() []float64 {
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
// deterministic schedule (and therefore the merge bit-identity).
// Campaign runners always go through Fork.
func (s *Stratified) Draw(rng *rand.Rand) (fault.Sample, float64) {
	return s.drawIn(s.allocDist.Sample(rng.Float64()), rng)
}

// drawIn draws a center within stratum k using the importance
// proposal's within-layer mixture, returning the sample and its full
// likelihood ratio (pi_k / alloc_k) · f_P(c)/g(c|k).
func (s *Stratified) drawIn(k int, rng *rand.Rand) (fault.Sample, float64) {
	im := s.inner
	smp, j := im.drawCenter(k, rng)
	g := im.MixLayer/float64(len(im.layers[k])) + (1-im.MixLayer)*im.pDists[k].Prob(j)
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
	floor := state.Floor
	if floor <= 0 {
		floor = DefaultAdaptFloor
	}
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
	return newStratifiedAlloc(s.inner, s.probs, raw, floor)
}

// Fork implements Forker: the returned stream draws strata on the
// deterministic largest-remainder schedule and runs one private rng
// substream per stratum, both derived solely from (receiver, seed).
// Per-stratum state therefore depends only on the per-stratum draw
// count — which is what makes campaigns over disjoint strata merge
// bit-identically with a sequential run.
func (s *Stratified) Fork(seed int64) Sampler {
	return &stratifiedStream{base: s, seed: seed, def: make([]float64, len(s.alloc)), rngs: make([]*rand.Rand, len(s.alloc))}
}

// ForkStrata forks a stream restricted to the strata selected by
// include: the stream walks the same global schedule but emits only the
// selected strata's draws, consuming nothing from the others. Two
// streams forked from the same seed over disjoint subsets together
// reproduce the full stream's per-stratum draws exactly. The subset
// must include at least one stratum with non-zero allocation.
func (s *Stratified) ForkStrata(seed int64, include func(k int) bool) (Sampler, error) {
	any := false
	inc := make([]bool, len(s.alloc))
	for k := range s.alloc {
		inc[k] = include(k)
		if inc[k] && s.alloc[k] > 0 {
			any = true
		}
	}
	if !any {
		return nil, fmt.Errorf("sampling: fork subset has no allocated stratum")
	}
	return &stratifiedStream{base: s, seed: seed, include: inc, def: make([]float64, len(s.alloc)), rngs: make([]*rand.Rand, len(s.alloc))}, nil
}

// stratifiedStream is one forked campaign stream: deterministic
// stratum schedule plus per-stratum rng substreams. The campaign rng
// passed to Draw is deliberately ignored so that the stream's output is
// a pure function of (base, seed, per-stratum draw counts).
type stratifiedStream struct {
	base    *Stratified
	seed    int64
	include []bool // nil = every stratum
	def     []float64
	rngs    []*rand.Rand
}

// Name implements Sampler.
func (st *stratifiedStream) Name() string { return st.base.Name() }

// TimingProbs implements Sampler.
func (st *stratifiedStream) TimingProbs() []float64 { return st.base.TimingProbs() }

// NumStrata implements Stratal.
func (st *stratifiedStream) NumStrata() int { return st.base.NumStrata() }

// StratumProb implements Stratal.
func (st *stratifiedStream) StratumProb(k int) float64 { return st.base.StratumProb(k) }

// StratumOf implements Stratal.
func (st *stratifiedStream) StratumOf(smp fault.Sample) int { return st.base.StratumOf(smp) }

// ConditionalWeight implements Stratal.
func (st *stratifiedStream) ConditionalWeight(smp fault.Sample, w float64) float64 {
	return st.base.ConditionalWeight(smp, w)
}

// Fork implements Forker by re-forking from the base sampler with a
// fresh schedule and fresh substreams. The include restriction is
// preserved: a restricted stream handed to a campaign runner (which
// forks it with the campaign seed) keeps emitting only its subset.
func (st *stratifiedStream) Fork(seed int64) Sampler {
	return &stratifiedStream{
		base:    st.base,
		seed:    seed,
		include: st.include,
		def:     make([]float64, len(st.base.alloc)),
		rngs:    make([]*rand.Rand, len(st.base.alloc)),
	}
}

// Adapt implements Adaptive on the base sampler.
func (st *stratifiedStream) Adapt(state AdaptState) (Sampler, error) { return st.base.Adapt(state) }

// Draw implements Sampler: next scheduled stratum, drawn from that
// stratum's private substream. The caller's rng is unused (see type
// comment).
func (st *stratifiedStream) Draw(_ *rand.Rand) (fault.Sample, float64) {
	for {
		k := st.next()
		if st.include != nil && !st.include[k] {
			continue
		}
		r := st.rngs[k]
		if r == nil {
			r = rand.New(rand.NewSource(st.seed ^ int64(k+1)*strataSeedMix)) //alloc-ok (once per stratum per stream)
			st.rngs[k] = r
		}
		return st.base.drawIn(k, r)
	}
}

// next advances the largest-remainder schedule: every stratum's deficit
// grows by its allocation each step and the largest deficit (ties to
// the lowest index) is served. Over N steps stratum k is served
// alloc_k·N ± 1 times, and the schedule is a pure function of the
// allocation — no randomness involved.
func (st *stratifiedStream) next() int {
	alloc := st.base.alloc
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
