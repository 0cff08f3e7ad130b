package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile is only worth reporting when at least this many
// answers are slower than it.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// the number of samples ranked strictly beyond it. It refuses a tail
// percentile with fewer than minBeyond samples beyond it, so p90 needs
// at least 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := len(s) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, len(s), beyond, minBeyond)
	}
	return s[rank-1], nil
}

// nominalRefMs is the median host-reference time of the nominal host
// (the 2-core VM the benchmark was tuned on, on one or two threads).
const nominalRefMs = 15.0

// hostScale is the factor that converts raw seconds measured on this
// run's host to seconds on the nominal host: a run on a host that is
// momentarily 20% slower reports the same figures as one on the nominal
// host. The raw seconds are the reported ones times
// host.ref_ms / nominalRefMs.
func hostScale(refMs []float64) (float64, error) {
	m := median(refMs)
	if !(m > 0) || math.IsInf(m, 0) {
		return 0, fmt.Errorf("host reference median %v ms is not a positive time", m)
	}
	return nominalRefMs / m, nil
}

// pooled combines independent answers into one estimate: the
// sample-weighted mean of the answers' SSF (for importance-weighted
// estimators this is the estimator over all their samples together) and
// the 95% half-width of that mean.
func pooled(answers []answer) (ssf, halfWidth float64) {
	var n, sum, varSum float64
	for _, a := range answers {
		w := float64(a.Samples)
		n += w
		sum += w * a.SSF
		varSum += (w * a.CI) * (w * a.CI)
	}
	if n == 0 {
		return math.NaN(), math.Inf(1)
	}
	return sum / n, math.Sqrt(varSum) / n
}
