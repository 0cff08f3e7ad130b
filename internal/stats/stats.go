// Package stats holds the small statistical toolkit the Monte Carlo
// framework relies on: streaming mean/variance (Welford), weighted
// estimators for importance sampling, histograms, and the weak
// law-of-large-numbers convergence bound the paper quotes.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a streaming mean and (unbiased) sample variance.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// LLNBound returns the weak-LLN (Chebyshev) bound the paper quotes:
// Pr[|mean_N - E| >= eps] <= sigma^2 / (N * eps^2), evaluated with the
// current sample variance. Values above 1 are clamped to 1.
func (w *Welford) LLNBound(eps float64) float64 {
	if w.n == 0 || eps <= 0 {
		return 1
	}
	b := w.Variance() / (float64(w.n) * eps * eps)
	if b > 1 {
		return 1
	}
	return b
}

// WelfordState is the exported snapshot of a Welford accumulator, used
// to serialize estimators (e.g. campaign checkpoints). The fields are
// the exact internal state, so a State/FromWelfordState round trip —
// including a trip through encoding/json, which emits the shortest
// representation that parses back to the same float64 — reproduces the
// accumulator bit-identically.
type WelfordState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State snapshots the accumulator.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2}
}

// FromWelfordState reconstructs an accumulator from a snapshot.
func FromWelfordState(s WelfordState) Welford {
	return Welford{n: s.N, mean: s.Mean, m2: s.M2}
}

// Merge folds another accumulator into this one, as if every
// observation of o had been Added here (Chan et al. parallel variance).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	d := o.mean - w.mean
	total := n1 + n2
	w.m2 += o.m2 + d*d*n1*n2/total
	w.mean += d * n2 / total
	w.n += o.n
}

// Weighted accumulates an importance-sampling estimator: each
// observation x_i carries a likelihood ratio weight w_i = f(x_i)/g(x_i),
// and the estimate is (1/N) * sum(w_i * x_i). Mean and variance are those
// of the weighted terms, which is what governs convergence.
type Weighted struct {
	inner Welford
}

// Add incorporates an observation with its likelihood-ratio weight.
func (e *Weighted) Add(x, weight float64) { e.inner.Add(x * weight) }

// N returns the number of observations.
func (e *Weighted) N() int { return e.inner.N() }

// Estimate returns the current importance-sampling estimate.
func (e *Weighted) Estimate() float64 { return e.inner.Mean() }

// Variance returns the sample variance of the weighted terms.
func (e *Weighted) Variance() float64 { return e.inner.Variance() }

// StdErr returns the standard error of the estimate.
func (e *Weighted) StdErr() float64 { return e.inner.StdErr() }

// LLNBound exposes the Chebyshev convergence bound of the weighted
// estimator (the paper's Section 3.3 criterion).
func (e *Weighted) LLNBound(eps float64) float64 { return e.inner.LLNBound(eps) }

// Merge folds another weighted estimator into this one.
func (e *Weighted) Merge(o Weighted) { e.inner.Merge(o.inner) }

// State snapshots the estimator for serialization; see WelfordState for
// the exactness guarantee.
func (e *Weighted) State() WelfordState { return e.inner.State() }

// FromWeightedState reconstructs an estimator from a snapshot.
func FromWeightedState(s WelfordState) Weighted {
	return Weighted{inner: FromWelfordState(s)}
}

// Histogram counts observations in fixed-width bins over [min, max);
// finite values outside the range are clamped into the first/last bin
// so the binned total always matches the number of finite observations.
// NaN observations carry no position at all (int(NaN) is an
// implementation-defined conversion in Go) and are counted separately
// in NaNs instead of polluting bin 0.
type Histogram struct {
	Min, Max float64
	Counts   []int
	// NaNs counts NaN observations, which are excluded from the bins
	// and from Total.
	NaNs  int
	total int
}

// NewHistogram creates a histogram with the given number of bins.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins < 1 || max <= min {
		panic(fmt.Sprintf("stats: bad histogram [%v, %v) x%d", min, max, bins))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records an observation. NaN is counted in NaNs, not in any bin.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		h.NaNs++
		return
	}
	// Clamp in the float domain: converting an out-of-range float
	// (±Inf or huge finite values) to int is implementation-defined in
	// Go and must never reach the conversion.
	pos := (x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts))
	bin := 0
	switch {
	case pos >= float64(len(h.Counts)):
		bin = len(h.Counts) - 1
	case pos > 0:
		bin = int(pos)
	}
	h.Counts[bin]++
	h.total++
}

// Total returns the number of binned observations (NaNs excluded).
func (h *Histogram) Total() int { return h.total }

// Fraction returns the share of observations in the given bin.
func (h *Histogram) Fraction(bin int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[bin]) / float64(h.total)
}

// BinCenter returns the center value of a bin.
func (h *Histogram) BinCenter(bin int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(bin)+0.5)*w
}

// Quantile returns the q-quantile (0 <= q <= 1) of the given sample,
// using linear interpolation. The input slice is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean of the sample (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Discrete is a normalized discrete distribution over indices 0..n-1.
// It backs both g_T (timing distance) and g_{P|T} (center gate)
// sampling. Sample reads a guide index over the cumulative table, so a
// draw is O(1) in the usual case: most variates land in a bucket that
// one index owns, and the rest search only the indices their bucket
// spans.
type Discrete struct {
	probs []float64
	cum   []float64
	// guide[b] is the first index with cum > b/K for the K = len(guide)−1
	// equal buckets of [0, 1), and guide[K] is the last index. K is a
	// power of two, so a variate's bucket is exact; nil when an index
	// does not fit in 16 bits.
	guide []uint16
}

// maxGuideBuckets caps the guide at 8 KB of uint16 entries.
const maxGuideBuckets = 4096

// NewDiscrete builds a distribution from non-negative, finite weights;
// they are normalized internally. It returns an error when every weight
// is zero or when their total overflows.
func NewDiscrete(weights []float64) (*Discrete, error) {
	total := 0.0
	for i, w := range weights {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return nil, fmt.Errorf("stats: weight %d is %v", i, w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("stats: all %d weights are zero", len(weights))
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("stats: the total of %d weights overflows", len(weights))
	}
	d := &Discrete{
		probs: make([]float64, len(weights)),
		cum:   make([]float64, len(weights)),
	}
	run := 0.0
	for i, w := range weights {
		d.probs[i] = w / total
		run += d.probs[i]
		d.cum[i] = run
	}
	// Guard against rounding: the last bin with mass must reach
	// exactly 1, and every trailing zero-probability bin must share
	// that value — otherwise rounding slack (cum < 1 at the last mass
	// bin) would make a trailing empty bin the first to exceed a
	// variate near 1.
	for i := len(d.cum) - 1; i >= 0; i-- {
		d.cum[i] = 1
		if d.probs[i] > 0 {
			break
		}
	}
	d.buildGuide()
	return d, nil
}

// buildGuide fills the guide in one pass over the cumulative table.
// Bucket edge b/k lies below cum[i] exactly when b < ⌈cum[i]·k⌉ (the
// product is exact), so index i owns the edges from the previous
// index's limit up to its own. For an edge in [0, 1), cum[i] > b/k is
// false and then true as i rises: the running sum never falls, and
// rounding can push interior values above 1 only past the point where
// every value exceeds the edge. So the limits never fall, and each edge
// gets the first index above it.
func (d *Discrete) buildGuide() {
	n := len(d.cum)
	if n-1 > math.MaxUint16 {
		return
	}
	k := 1
	for k < 4*n && k < maxGuideBuckets {
		k <<= 1
	}
	g := make([]uint16, k+1)
	b := 0
	for i, c := range d.cum {
		end := k
		if x := c * float64(k); x < float64(k) {
			end = int(math.Ceil(x))
		}
		for ; b < end; b++ {
			g[b] = uint16(i)
		}
	}
	g[k] = uint16(n - 1)
	d.guide = g
}

// Prob returns the probability mass at index i.
func (d *Discrete) Prob(i int) float64 { return d.probs[i] }

// Len returns the support size.
func (d *Discrete) Len() int { return len(d.probs) }

// Sample draws an index using the caller-supplied uniform variate
// u in [0, 1). Bin i owns the half-open interval [cum[i-1], cum[i]),
// so a variate exactly equal to an interior cumulative value belongs
// to the next bin with mass, never to bin i itself.
//
// The owner is the first index with cum > u. It necessarily has
// nonzero mass: a zero-probability bin shares its cumulative value with
// its predecessor, so it can never be the *first* index to exceed u.
// A variate in bucket b = ⌊u·K⌋ lies in [b/K, (b+1)/K), so its owner
// lies in [guide[b], guide[b+1]], and the search there returns what a
// search over the whole table would.
func (d *Discrete) Sample(u float64) int {
	if g := d.guide; g != nil && 0 <= u && u < 1 {
		b := int(u * float64(len(g)-1))
		lo, hi := int(g[b]), int(g[b+1])
		if lo == hi {
			return lo
		}
		return d.search(u, lo, hi)
	}
	i := d.search(u, 0, len(d.cum))
	if i >= len(d.cum) {
		// Defensive: only reachable for u >= 1, outside the contract.
		i = len(d.cum) - 1
		for i > 0 && d.probs[i] == 0 {
			i--
		}
	}
	return i
}

// search returns the first index in [lo, hi) with cum > u, or hi when
// there is none. Open-coded: Sample runs once per draw, and the
// sort.Search closure indirection is measurable there.
func (d *Discrete) search(u float64, lo, hi int) int {
	cum := d.cum
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
