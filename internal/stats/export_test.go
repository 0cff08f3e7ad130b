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
