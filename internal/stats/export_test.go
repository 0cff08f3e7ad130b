package stats

import "math"

// SamplesForRisk returns the number of samples the LLN bound requires to
// push the risk of an eps-deviation below delta, given the current
// variance estimate.
func (w *Welford) SamplesForRisk(eps, delta float64) int {
	if eps <= 0 || delta <= 0 {
		return math.MaxInt32
	}
	return int(math.Ceil(w.Variance() / (delta * eps * eps)))
}

// SampleSearch is Sample without the guide index: one binary search
// over the whole cumulative table, the oracle the guide is held to.
func (d *Discrete) SampleSearch(u float64) int {
	cum := d.cum
	lo, hi := 0, len(cum)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	if i >= len(d.cum) {
		i = len(d.cum) - 1
		for i > 0 && d.probs[i] == 0 {
			i--
		}
	}
	return i
}

// GuideBuckets returns the number of buckets of d's guide index, 0
// when it has none.
func (d *Discrete) GuideBuckets() int { return max(len(d.guide)-1, 0) }

// Cum returns d's cumulative table.
func (d *Discrete) Cum() []float64 { return d.cum }

// StratumMean returns the running conditional mean of stratum k.
func (s *Stratified) StratumMean(k int) float64 { return s.strata[k].Mean() }
