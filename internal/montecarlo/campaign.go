package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/timingsim"
)

// CampaignOptions configures a Monte Carlo campaign.
type CampaignOptions struct {
	// Samples is the number of fault-attack runs.
	Samples int
	// Mode selects gate or register attacks.
	Mode Mode
	// Seed makes the campaign reproducible.
	Seed int64
	// TrackConvergence records the running SSF estimate after every
	// sample (Fig 9(a)); costs one float per sample.
	TrackConvergence bool
	// TrackPatterns records the distinct latched error patterns
	// (Fig 7(b)); costs one map entry per distinct pattern.
	TrackPatterns bool
	// Progress, when non-nil, receives a snapshot of the committed
	// total after every window (see ProgressFunc). It does not affect
	// the campaign result.
	Progress ProgressFunc
	// Deprecated: ignored; every campaign runs the lane-batched loop.
	Batch bool
}

// Campaign is the aggregate result of a sampling campaign.
type Campaign struct {
	SamplerName string
	Options     CampaignOptions

	// Est is the (importance-weighted) SSF estimator.
	Est stats.Weighted
	// Convergence is the running estimate per sample when tracked.
	Convergence []float64
	// ClassCounts histograms the latched-error classes (Fig 10(a)).
	ClassCounts [3]int
	// PathCounts histograms how outcomes were decided.
	PathCounts [4]int
	// Successes counts raw successful runs (unweighted).
	Successes int
	// RTLCycles accumulates the RTL resume cycles actually simulated
	// (the cost the pre-characterization machinery saves).
	RTLCycles int
	// RegContribution attributes weighted success mass to each
	// register involved in a successful attack (critical-register
	// identification; not normalized).
	RegContribution map[netlist.NodeID]float64
	// Patterns holds distinct flipped-register patterns when tracked.
	Patterns map[string]bool
	// PatternCounts histograms the latched patterns by byte spread
	// (Fig 7(a)) when tracking is on.
	PatternCounts map[timingsim.PatternClass]int
	// Strata is the per-stratum estimator, tracked when the sampler
	// stratifies the attack space (sampling.Stratal); nil otherwise.
	// When present, SSF reads the stratified estimate instead of the
	// plain weighted mean.
	Strata *stats.Stratified
	// Weights accumulates the likelihood-ratio moments behind the
	// effective sample size (ESS).
	Weights stats.WeightMoments
	// TDraws and THits tally draws and raw successes per timing
	// distance (index t); adaptive proposal re-weighting reads them.
	// The slices grow lazily to the largest observed t+1.
	TDraws, THits []int
}

// SSF returns the campaign's System Security Factor estimate: the
// stratified estimate when per-stratum state is tracked, and the plain
// weighted mean otherwise.
func (c *Campaign) SSF() float64 {
	if c.Strata != nil {
		return c.Strata.Estimate()
	}
	return c.Est.Estimate()
}

// Variance returns the per-term sample variance of the plain weighted
// estimator — the quantity the paper's Fig 9(b) compares across
// strategies. See EstimatorVariance for the variance of the estimate
// itself under the campaign's active estimator.
func (c *Campaign) Variance() float64 { return c.Est.Variance() }

// EstimatorVariance returns the variance of the campaign's SSF
// estimate under whichever estimator SSF uses: the exact stratified
// estimator variance, or the plain term variance over n. An empty
// campaign reports +Inf.
func (c *Campaign) EstimatorVariance() float64 {
	if c.Strata != nil {
		return c.Strata.EstVariance()
	}
	n := c.Est.N()
	if n == 0 {
		return math.Inf(1)
	}
	return c.Est.Variance() / float64(n)
}

// CIHalfWidth returns the 95% confidence-interval half-width of the
// SSF estimate.
func (c *Campaign) CIHalfWidth() float64 {
	v := c.EstimatorVariance()
	if math.IsInf(v, 1) {
		return math.Inf(1)
	}
	return stats.Z95 * math.Sqrt(v)
}

// ESS returns Kish's effective sample size of the campaign's
// likelihood-ratio weights.
func (c *Campaign) ESS() float64 { return c.Weights.ESS() }

// llnBound is the generalized Chebyshev stopping bound
// Pr[|est − SSF| ≥ eps] ≤ Var[est]/eps², clamped to 1. For campaigns
// without strata it equals Est.LLNBound exactly.
func (c *Campaign) llnBound(eps float64) float64 {
	if eps <= 0 || c.Est.N() == 0 {
		return 1
	}
	b := c.EstimatorVariance() / (eps * eps)
	if b > 1 || math.IsInf(b, 1) {
		return 1
	}
	return b
}

// tally grows a per-t tally slice to cover index t and increments it.
func tally(s *[]int, t int) {
	if t < 0 {
		return
	}
	for len(*s) <= t {
		*s = append(*s, 0)
	}
	(*s)[t]++
}

// RunCampaign draws samples from the sampler and evaluates each with
// the engine, accumulating the weighted SSF estimate. RunGolden must
// have been called.
//
// The context cancels or deadlines the campaign between samples: on
// cancellation the partial Campaign accumulated so far is returned
// alongside the context's error, with Options.Samples reflecting the
// samples actually evaluated.
func (e *Engine) RunCampaign(ctx context.Context, sampler sampling.Sampler, opts CampaignOptions) (*Campaign, error) {
	c, sampler, err := e.newCampaign(sampler, opts)
	if err != nil {
		return nil, err
	}
	if err := e.runSamples(ctx, c, sampler, opts); err != nil {
		c.Options.Samples = c.Est.N()
		return c, err
	}
	return c, nil
}

// newCampaign checks the options and starts an empty campaign, with
// the sampler the campaign draws from.
func (e *Engine) newCampaign(sampler sampling.Sampler, opts CampaignOptions) (*Campaign, sampling.Sampler, error) {
	if e.m == nil {
		return nil, nil, fmt.Errorf("montecarlo: RunCampaign before RunGolden")
	}
	if opts.Samples < 1 {
		return nil, nil, fmt.Errorf("montecarlo: %d samples", opts.Samples)
	}
	// Stateful samplers (the stratum schedule) are never drawn from
	// directly: each campaign forks a private stream, which draws from
	// the campaign's rng, so the per-block seeds of the round loop make
	// every stream — and every resumed replay of it — deterministic.
	if f, ok := sampler.(sampling.Forker); ok {
		sampler = f.Fork()
	}
	c := emptyCampaign(sampler.Name(), opts)
	if st, ok := sampler.(sampling.Stratal); ok {
		probs := make([]float64, st.NumStrata())
		for k := range probs {
			probs[k] = st.StratumProb(k)
		}
		strata, err := stats.NewStratified(probs)
		if err != nil {
			return nil, nil, fmt.Errorf("montecarlo: stratified sampler: %w", err)
		}
		c.Strata = strata
	}
	return c, sampler, nil
}

// emptyCampaign starts a campaign with the state accumulate folds into:
// the attribution map, and the convergence trace and pattern sets when
// the options track them.
func emptyCampaign(samplerName string, opts CampaignOptions) *Campaign {
	c := &Campaign{
		SamplerName:     samplerName,
		Options:         opts,
		RegContribution: make(map[netlist.NodeID]float64),
	}
	if opts.TrackConvergence {
		c.Convergence = make([]float64, 0, opts.Samples)
	}
	if opts.TrackPatterns {
		c.Patterns = make(map[string]bool)
		c.PatternCounts = make(map[timingsim.PatternClass]int)
	}
	return c
}

// patternLayout is the register layout accumulate classifies latched
// patterns with; nil when the options do not track patterns.
func (e *Engine) patternLayout(opts CampaignOptions) *timingsim.RegisterLayout {
	if !opts.TrackPatterns {
		return nil
	}
	return timingsim.NewRegisterLayout(e.SoC.MPU.Groups)
}

// accumulate folds one evaluated sample into the campaign aggregate.
// The fold order is the draw order — the weighted estimator is a
// floating-point sum, so results are committed in exactly this order,
// which keeps campaigns bit-identical to consecutive RunOnce calls. st
// is the sampler's Stratal view when the campaign tracks per-stratum
// state (c.Strata non-nil).
func (e *Engine) accumulate(c *Campaign, opts *CampaignOptions, layout *timingsim.RegisterLayout, st sampling.Stratal, sample fault.Sample, weight float64, res *RunResult) {
	x := 0.0
	if res.Success {
		x = 1.0
		c.Successes++
		for _, r := range e.AttributeSuccess(sample, res.Flipped) {
			c.RegContribution[r] += weight
		}
	}
	c.Est.Add(x, weight)
	c.Weights.Add(weight)
	tally(&c.TDraws, sample.T)
	if res.Success {
		tally(&c.THits, sample.T)
	}
	if c.Strata != nil && st != nil {
		c.Strata.Add(st.StratumOf(sample), x, st.ConditionalWeight(sample, weight), res.Success)
	}
	c.ClassCounts[res.Class]++
	c.PathCounts[res.Path]++
	c.RTLCycles += res.ResumeCycles
	if opts.TrackConvergence {
		c.Convergence = append(c.Convergence, c.SSF())
	}
	if opts.TrackPatterns && len(res.Flipped) > 0 {
		c.Patterns[timingsim.PatternKey(res.Flipped)] = true
		c.PatternCounts[layout.Classify(res.Flipped)]++
	}
}

// batchWindow is the number of draws buffered per flush of deferred
// resumes: enough that draws aimed at the same injection cycle fill
// most of a 64-lane word, small enough that cancellation stays
// responsive.
const batchWindow = 2048

// windowBufs is runSamples' per-window scratch. It lives on the
// engine, so every window of every campaign the engine runs reuses it.
type windowBufs struct {
	samples []fault.Sample
	weights []float64
	results []RunResult
	pend    []pendingResume
	// flips backs the Flipped sets of the window's results and pending
	// resumes. It is reset when the next window starts, so a window's
	// flip sets are valid until then: long enough for flushResumes and
	// accumulate, which retain none of them.
	flips []netlist.NodeID
}

// reset empties the buffers for a window of n draws, growing them if
// needed.
func (w *windowBufs) reset(n int) {
	w.samples = slices.Grow(w.samples[:0], n)[:n]
	w.weights = slices.Grow(w.weights[:0], n)[:n]
	w.results = slices.Grow(w.results[:0], n)[:n]
	w.pend = w.pend[:0]
	w.flips = w.flips[:0]
}

// runSamples evaluates opts.Samples draws into c over the lane-batched
// execution path, one window at a time: it draws the window's samples
// and weights, injects and classifies them in draw order against the
// model's golden attack window, completes the deferred PathRTL resumes
// in sweeps of the 64-lane simulator, and commits the results in draw
// order. Drawing
// the whole window before its first evaluation keeps the sampler's
// tables warm across the draws, and leaves the rng stream as
// consecutive RunOnce calls would consume it, because the rng drives
// only the draws and applyHardening. An engine with hardened registers
// therefore draws each sample just before its evaluation (a draw step
// of 1). Either way fixed-seed campaigns are bit-identical to running
// every draw through RunOnce. ctx is consulted between evaluations, a
// cancelled window commits exactly the samples it evaluated, and
// opts.Progress sees the total after every window that committed any.
func (e *Engine) runSamples(ctx context.Context, c *Campaign, sampler sampling.Sampler, opts CampaignOptions) error {
	rep := newReporter(opts.Progress, opts.Samples, 0)
	rng := rand.New(rand.NewSource(opts.Seed))
	layout := e.patternLayout(opts)
	w := &e.win
	st, _ := sampler.(sampling.Stratal)
	gt := e.tablesFor(opts.Mode)
	drawStep := batchWindow
	if len(e.Hardened) > 0 {
		drawStep = 1
	}
	done := ctx.Done()
	evaluated := 0
	for evaluated < opts.Samples {
		n := min(opts.Samples-evaluated, batchWindow)
		w.reset(n)
		cancelled := false
		drawn, ran := 0, 0
		for ; ran < n; ran++ {
			select {
			case <-done:
				cancelled = true
			default:
			}
			if cancelled {
				break
			}
			for end := min(n, ran+drawStep); drawn < end; drawn++ {
				w.samples[drawn], w.weights[drawn] = sampler.Draw(rng)
			}
			res, te, deferred := e.evalSample(rng, w.samples[ran], opts.Mode, gt, &w.flips)
			w.results[ran] = res
			if deferred {
				w.pend = append(w.pend, pendingResume{idx: ran, te: te, flips: res.Flipped})
			}
		}
		e.flushResumes(w.pend, w.results)
		for j := 0; j < ran; j++ {
			e.accumulate(c, &opts, layout, st, w.samples[j], w.weights[j], &w.results[j])
		}
		evaluated += ran
		if ran > 0 {
			rep.report(c)
		}
		if cancelled {
			return ctx.Err()
		}
	}
	return nil
}

// CriticalRegisters returns registers ranked by their share of the
// total success mass, and the cumulative share covered by each prefix.
// It implements the paper's identification of the ~3% of registers that
// contribute >95% of SSF.
type CriticalRegister struct {
	Reg   netlist.NodeID
	Share float64
}

// CriticalRegisters ranks registers by attributed success mass.
func (c *Campaign) CriticalRegisters() []CriticalRegister {
	return RankContributions(c.RegContribution)
}

// RankContributions merges one or more attribution maps (e.g. from a
// gate-attack and a register-attack campaign) into a single normalized
// ranking.
func RankContributions(maps ...map[netlist.NodeID]float64) []CriticalRegister {
	merged := map[netlist.NodeID]float64{}
	for _, m := range maps {
		//maporder-ok (per-key accumulation; totals are summed in sorted order below)
		for r, v := range m {
			merged[r] += v
		}
	}
	out := make([]CriticalRegister, 0, len(merged))
	//maporder-ok (collected then sorted by register id before any float fold)
	for r, v := range merged {
		out = append(out, CriticalRegister{Reg: r, Share: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Reg < out[j].Reg })
	// Float addition is not associative, so the total — and through it
	// every normalized share — must be folded in a fixed order, not map
	// iteration order.
	total := 0.0
	for i := range out {
		total += out[i].Share
	}
	if total == 0 {
		return nil
	}
	for i := range out {
		out[i].Share /= total
	}
	// Deterministic order: by share desc, then id.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if out[j].Share > out[j-1].Share ||
				(out[j].Share == out[j-1].Share && out[j].Reg < out[j-1].Reg) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

// CoverageCount returns how many top-ranked registers are needed to
// cover the given share (e.g. 0.95) of the success mass.
func CoverageCount(ranked []CriticalRegister, share float64) int {
	cum := 0.0
	for i, cr := range ranked {
		cum += cr.Share
		if cum >= share-1e-9 {
			return i + 1
		}
	}
	return len(ranked)
}
