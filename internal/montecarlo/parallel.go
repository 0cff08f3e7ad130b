package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/netlist"
	"repro/internal/sampling"
	"repro/internal/timingsim"
)

// Merge folds another campaign (same sampler, same engine family) into
// this one: estimator, class/path/success accounting, register
// attribution, and pattern sets. Convergence traces are dropped — a
// cross-shard merge has no meaningful global sample order, so the
// receiver's trace is cleared to avoid misreading a partial trace as
// the whole campaign's. Use MergeSequential when o is a same-engine
// continuation of c (the chunked adaptive rounds), where the
// concatenated order is real.
//
// Merge errors when the campaigns are statistically incomparable:
// importance weights are likelihood ratios against one proposal, so
// folding estimators from different samplers (or class/path counters
// from different attack modes) would silently produce a biased
// aggregate. On error the receiver is unchanged.
func (c *Campaign) Merge(o *Campaign) error {
	if o == nil {
		return nil
	}
	if c.SamplerName != o.SamplerName {
		return fmt.Errorf("montecarlo: merge of %q campaign into %q: importance weights are incomparable across samplers", o.SamplerName, c.SamplerName)
	}
	if c.Options.Mode != o.Options.Mode {
		return fmt.Errorf("montecarlo: merge across attack modes (%v into %v)", o.Options.Mode, c.Options.Mode)
	}
	// All validations precede the first mutation so the receiver is
	// unchanged on any error path.
	if (c.Strata == nil) != (o.Strata == nil) {
		return fmt.Errorf("montecarlo: merge of stratified and unstratified campaigns")
	}
	if c.Strata != nil {
		// Self-validating: errors (mismatched stratum layout) leave
		// both sides untouched.
		if err := c.Strata.Merge(o.Strata); err != nil {
			return fmt.Errorf("montecarlo: %w", err)
		}
	}
	if len(o.RegContribution) > 0 && c.RegContribution == nil {
		c.RegContribution = make(map[netlist.NodeID]float64, len(o.RegContribution))
	}
	c.Weights.Merge(o.Weights)
	mergeTally(&c.TDraws, o.TDraws)
	mergeTally(&c.THits, o.THits)
	c.Est.Merge(o.Est)
	c.Successes += o.Successes
	c.RTLCycles += o.RTLCycles
	//hot
	for i := range c.ClassCounts {
		c.ClassCounts[i] += o.ClassCounts[i]
	}
	//hot
	for i := range c.PathCounts {
		c.PathCounts[i] += o.PathCounts[i]
	}
	//hot
	for r, v := range o.RegContribution {
		c.RegContribution[r] += v
	}
	if o.Patterns != nil {
		if c.Patterns == nil {
			c.Patterns = make(map[string]bool)
		}
		for p := range o.Patterns {
			c.Patterns[p] = true
		}
	}
	if o.PatternCounts != nil {
		if c.PatternCounts == nil {
			c.PatternCounts = make(map[timingsim.PatternClass]int)
		}
		for k, n := range o.PatternCounts {
			c.PatternCounts[k] += n
		}
	}
	c.Convergence = nil
	c.Options.Samples += o.Options.Samples
	return nil
}

// MergeSequential folds a continuation chunk into this campaign while
// extending the convergence trace: o must have been run after c on the
// same engine (as the chunked RunAdaptive rounds are), so the
// concatenated sample order is the campaign's real order. The appended
// entries are recomputed as running estimates of the combined campaign
// — o's own trace is relative to its chunk only. When either side did
// not track convergence the trace is dropped, as in Merge. The replay
// reconstructs terms of the plain weighted mean, so campaigns carrying
// per-stratum state (whose traces follow the stratified estimator) also
// drop the trace.
//
// MergeSequential errors under the same conditions as Merge (sampler
// or attack-mode mismatch), leaving the receiver unchanged.
func (c *Campaign) MergeSequential(o *Campaign) error {
	var conv []float64
	replayable := c.Strata == nil && (o == nil || o.Strata == nil)
	if o != nil && replayable && c.Convergence != nil && o.Convergence != nil {
		// The k-th chunk entry m_k is the running mean after k terms,
		// so each weighted term is recoverable as
		// m_k·k − m_{k−1}·(k−1); replaying the terms on a copy of the
		// pre-merge estimator yields the campaign-global trace.
		conv = c.Convergence
		scratch := c.Est
		prev := 0.0
		for k, m := range o.Convergence {
			term := m*float64(k+1) - prev*float64(k)
			scratch.Add(term, 1)
			conv = append(conv, scratch.Estimate())
			prev = m
		}
	}
	if err := c.Merge(o); err != nil {
		return err
	}
	c.Convergence = conv
	return nil
}

// mergeTally adds per-t tallies element-wise, growing dst as needed.
func mergeTally(dst *[]int, src []int) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, v := range src {
		(*dst)[i] += v
	}
}

// validateEngines checks an engine pool for parallel use.
func validateEngines(engines []*Engine) error {
	if len(engines) == 0 {
		return fmt.Errorf("montecarlo: no engines")
	}
	for i, e := range engines {
		if e == nil || e.golden == nil {
			return fmt.Errorf("montecarlo: engine %d has no golden run", i)
		}
	}
	return nil
}

// runShards runs one campaign per engine concurrently, one goroutine
// per engine (engines with a zero-sample shard are skipped). Shard
// panics are isolated: a panicking shard surfaces as that shard's
// indexed error instead of crashing the process.
func runShards(ctx context.Context, engines []*Engine, sampler sampling.Sampler, shardOpts []CampaignOptions, agg *progressAgg) ([]*Campaign, []error) {
	results := make([]*Campaign, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i := range engines {
		if shardOpts[i].Samples == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("shard %d: panic: %v", i, r)
				}
			}()
			c, err := engines[i].runCampaign(ctx, sampler, shardOpts[i], agg, i)
			if err != nil {
				err = fmt.Errorf("shard %d: %w", i, err)
			}
			results[i], errs[i] = c, err
		}(i)
	}
	wg.Wait()
	return results, errs
}

// mergeShards folds shard results in index order, so the merged result
// is independent of goroutine scheduling. The fold target is a clone of
// the first contributing shard — never the shard itself — so the
// entries of results stay intact for callers that retain per-shard
// campaigns (e.g. a per-shard checkpoint store). Cancellation is not a
// shard failure: when the only errors are the context's, the partial
// shards are merged and returned alongside the context error. Any other
// shard error (including an isolated panic) fails the whole campaign.
func mergeShards(ctx context.Context, results []*Campaign, errs []error) (*Campaign, error) {
	// Preallocated to the shard count: the merge runs once per adaptive
	// round, and growing these inside the round loop shows up in the
	// aggregation profile of large pools.
	hard := make([]error, 0, len(errs))
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			continue
		}
		hard = append(hard, err)
	}
	if len(hard) > 0 {
		return nil, errors.Join(hard...)
	}
	var merged *Campaign
	for i, r := range results {
		if r == nil || r.Est.N() == 0 {
			continue
		}
		if merged == nil {
			merged = r.Clone()
			continue
		}
		if err := merged.Merge(r); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if merged == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("montecarlo: no shards ran")
	}
	return merged, ctx.Err()
}

// shardCampaignOptions derives the per-engine shard options for one
// parallel round of n total samples: an even split (earlier shards take
// the remainder) with deterministically derived per-shard seeds.
func shardCampaignOptions(engines int, n int, opts CampaignOptions, round int64) []CampaignOptions {
	base := n / engines
	extra := n % engines
	out := make([]CampaignOptions, engines)
	for i := range out {
		so := opts
		so.Progress = nil // shards report through the shared aggregator
		so.Samples = base
		if i < extra {
			so.Samples++
		}
		so.Seed = opts.Seed*1000003 + round*int64(engines) + int64(i)
		out[i] = so
	}
	return out
}

// RunCampaignParallel splits a campaign across the given engines, one
// goroutine per engine, and merges the shard results. Every engine must
// target the same design/benchmark/attack and have completed its golden
// run; each shard draws from the shared sampler with its own
// deterministically-derived seed, so the merged result is reproducible
// (independent of scheduling) but differs from the sequential campaign
// with the same seed.
//
// Samplers built by internal/sampling are safe for concurrent Draw with
// distinct rngs (they are immutable after construction).
//
// The context cancels the campaign: the shards stop at their next
// sample boundary, their partials are merged, and the merged partial
// Campaign is returned together with the context's error. A shard that
// panics or fails is reported as an indexed error ("shard %d: ...")
// without taking down the process; any such failure fails the whole
// campaign.
func RunCampaignParallel(ctx context.Context, engines []*Engine, sampler sampling.Sampler, opts CampaignOptions) (*Campaign, error) {
	if err := validateEngines(engines); err != nil {
		return nil, err
	}
	if opts.Samples < 1 {
		return nil, fmt.Errorf("montecarlo: %d samples", opts.Samples)
	}
	if opts.TrackConvergence {
		return nil, fmt.Errorf("montecarlo: convergence tracking is per-shard; run sequentially to trace convergence")
	}
	agg := newProgressAgg(opts.Progress, opts.ProgressEvery, opts.Samples, len(engines))
	shardOpts := shardCampaignOptions(len(engines), opts.Samples, opts, 0)
	results, errs := runShards(ctx, engines, sampler, shardOpts, agg)
	merged, err := mergeShards(ctx, results, errs)
	if merged != nil {
		merged.Options.Seed = opts.Seed
		merged.Options.Progress = opts.Progress
	}
	return merged, err
}

// AdaptiveOptions configures RunAdaptive and RunAdaptiveParallel.
type AdaptiveOptions struct {
	// Mode, Seed, TrackPatterns as in CampaignOptions.
	Mode          Mode
	Seed          int64
	TrackPatterns bool
	// TrackConvergence records the campaign's running estimate. In
	// RunAdaptive the trace has one entry per sample, exactly as a
	// sequential RunCampaign would produce (the chunked rounds are
	// stitched with MergeSequential). In RunAdaptiveParallel the
	// per-sample order across shards is not meaningful, so the trace
	// holds one entry per round instead: the merged estimate after
	// each round.
	TrackConvergence bool
	// Epsilon and Risk define the stopping criterion via the paper's
	// weak-LLN bound: stop once
	// Pr[|estimate − SSF| ≥ Epsilon] ≤ Risk, i.e.
	// variance/(N·Epsilon²) ≤ Risk.
	Epsilon, Risk float64
	// MinSamples guards against stopping on a premature zero-variance
	// streak; MaxSamples bounds the total effort.
	MinSamples, MaxSamples int
	// CheckEvery controls how often the bound is evaluated. In the
	// parallel run each engine contributes CheckEvery samples per
	// round, so the bound is checked every CheckEvery×engines samples.
	CheckEvery int
	// Progress and ProgressEvery as in CampaignOptions; adaptive
	// snapshots report Total as 0 (open-ended).
	Progress      ProgressFunc
	ProgressEvery int
	// Deprecated: ignored; every campaign runs the lane-batched loop.
	Batch bool
	// Resume continues a previously checkpointed RunAdaptiveParallel
	// campaign: the accumulated total restored from a Checkpoint
	// snapshot of the same options. ResumeRound is the number of rounds
	// that snapshot had completed — the round counter (and with it the
	// deterministic per-(round, shard) seeds) continues from there, so
	// a resumed run is bit-identical to the uninterrupted run with the
	// same options, provided the snapshot round-tripped exactly
	// (CampaignSnapshot guarantees this, including through JSON).
	// RunAdaptive ignores both fields.
	Resume      *Campaign
	ResumeRound int64
	// AdaptProposal re-tunes the sampler between rounds when it
	// implements sampling.Adaptive: the Importance sampler re-tilts
	// its timing distribution toward the observed per-stratum hit
	// rates, and the Stratified sampler switches to Neyman allocation
	// from the per-stratum variances. The re-tuned proposal is a pure
	// function of the accumulated campaign state, so checkpointed runs
	// resume bit-identically; weight-floor clamping (AdaptFloor, as a
	// fraction of the largest re-tuned weight; 0 means
	// sampling.DefaultAdaptFloor) keeps every stratum explored and the
	// estimate unbiased. Non-adaptive samplers are unaffected.
	AdaptProposal bool
	AdaptFloor    float64
	// Checkpoint, when non-nil, is invoked by RunAdaptiveParallel after
	// every merged round with the number of completed rounds and a deep
	// copy of the accumulated campaign (safe to retain and serialize;
	// its Convergence holds the per-round trace when TrackConvergence
	// is set). Feed the copy back through Resume/ResumeRound to
	// continue after an interruption. The callback runs on the
	// orchestrating goroutine between rounds; it must not call back
	// into the engines. RunAdaptive ignores it.
	Checkpoint func(rounds int64, total *Campaign)
}

// DefaultAdaptive returns a criterion targeting ±eps at 5% risk.
func DefaultAdaptive(eps float64) AdaptiveOptions {
	return AdaptiveOptions{
		Epsilon:    eps,
		Risk:       0.05,
		MinSamples: 2000,
		MaxSamples: 1 << 20,
		CheckEvery: 500,
	}
}

// sanitize validates the stopping criterion and applies the defaults
// RunAdaptive has always applied to the effort bounds.
func (o *AdaptiveOptions) sanitize() error {
	if o.Epsilon <= 0 || o.Risk <= 0 || o.Risk >= 1 {
		return fmt.Errorf("montecarlo: bad criterion eps=%v risk=%v", o.Epsilon, o.Risk)
	}
	if o.MinSamples < 1 {
		o.MinSamples = 1
	}
	if o.MaxSamples < o.MinSamples {
		o.MaxSamples = o.MinSamples
	}
	if o.CheckEvery < 1 {
		o.CheckEvery = 100
	}
	return nil
}

// converged reports whether the accumulated campaign meets the
// stopping criterion, evaluated on the campaign's active estimator:
// for plain campaigns the bound is Est.LLNBound exactly (variance /
// (N·eps²)); stratified campaigns use the stratified estimator
// variance, which is what converges faster. An estimate without a
// success never converges: its variance is zero, so the bound alone
// would certify SSF 0 with a zero-width CI.
func (o *AdaptiveOptions) converged(total *Campaign) bool {
	return total != nil &&
		total.Est.N() >= o.MinSamples &&
		total.Successes > 0 &&
		total.llnBound(o.Epsilon) <= o.Risk
}

// adapted re-tunes the sampler from the accumulated campaign between
// rounds (no-op unless AdaptProposal is set and the sampler supports
// it). Determinism: the result depends only on (sampler, total).
func (o *AdaptiveOptions) adapted(s sampling.Sampler, total *Campaign) (sampling.Sampler, error) {
	if !o.AdaptProposal || total == nil {
		return s, nil
	}
	ad, ok := s.(sampling.Adaptive)
	if !ok {
		return s, nil
	}
	return ad.Adapt(sampling.AdaptState{
		Draws:  total.TDraws,
		Hits:   total.THits,
		Strata: total.Strata,
		Floor:  o.AdaptFloor,
	})
}

// finish stamps the synthesized options of an adaptive campaign.
func (o *AdaptiveOptions) finish(total *Campaign) *Campaign {
	if total == nil {
		return nil
	}
	total.Options.Seed = o.Seed
	total.Options.Samples = total.Est.N()
	return total
}

// RunAdaptive samples until the weak-LLN convergence bound the paper
// quotes drops below the requested risk ("the whole process is continued
// until the empirical estimate converges"), then returns the campaign.
// Cancellation via ctx returns the partial campaign accumulated so far
// alongside the context's error.
func (e *Engine) RunAdaptive(ctx context.Context, sampler sampling.Sampler, opts AdaptiveOptions) (*Campaign, error) {
	if e.golden == nil {
		return nil, fmt.Errorf("montecarlo: RunAdaptive before RunGolden")
	}
	if err := opts.sanitize(); err != nil {
		return nil, err
	}
	agg := newProgressAgg(opts.Progress, opts.ProgressEvery, 0, 1)
	var total *Campaign
	cur := sampler
	chunkIdx := int64(0)
	for {
		remaining := opts.MaxSamples
		if total != nil {
			remaining = opts.MaxSamples - total.Est.N()
		}
		if remaining <= 0 {
			break
		}
		chunkN := opts.CheckEvery
		if chunkN > remaining {
			chunkN = remaining
		}
		chunk, err := e.runCampaign(ctx, cur, CampaignOptions{
			Samples:          chunkN,
			Mode:             opts.Mode,
			Seed:             opts.Seed*999983 + chunkIdx,
			TrackConvergence: opts.TrackConvergence,
			TrackPatterns:    opts.TrackPatterns,
		}, agg, 0)
		chunkIdx++
		if total == nil {
			total = chunk
		} else if chunk != nil {
			if merr := total.MergeSequential(chunk); merr != nil {
				return opts.finish(total), merr
			}
		}
		if err != nil {
			return opts.finish(total), err
		}
		agg.rebase(0)
		if opts.converged(total) {
			break
		}
		next, aerr := opts.adapted(cur, total)
		if aerr != nil {
			return opts.finish(total), aerr
		}
		cur = next
	}
	return opts.finish(total), nil
}

// RunAdaptiveParallel composes the parallel and adaptive campaigns: it
// runs chunked rounds across the engine pool (CheckEvery samples per
// engine per round) and evaluates the weak-LLN stopping bound on the
// merged estimator between rounds, so it stops within one round of the
// criterion being met. Per-(round, shard) seeds are derived
// deterministically and shards merge in index order, making the result
// reproducible and independent of scheduling (it differs from the
// sequential RunAdaptive with the same seed).
//
// Cancellation returns the merged partial campaign alongside the
// context's error. A panicking or failing shard surfaces as an indexed
// error and ends the campaign, but the rounds accumulated before the
// failing round are not discarded: the partial campaign is returned
// alongside the error, exactly as on cancellation. (The failing round's
// own shards are dropped — a half-merged round would not be resumable.)
func RunAdaptiveParallel(ctx context.Context, engines []*Engine, sampler sampling.Sampler, opts AdaptiveOptions) (*Campaign, error) {
	if err := validateEngines(engines); err != nil {
		return nil, err
	}
	if err := opts.sanitize(); err != nil {
		return nil, err
	}
	nE := len(engines)
	agg := newProgressAgg(opts.Progress, opts.ProgressEvery, 0, nE)
	copts := CampaignOptions{
		Mode:          opts.Mode,
		Seed:          opts.Seed,
		TrackPatterns: opts.TrackPatterns,
	}
	var total *Campaign
	var conv []float64
	cur := sampler
	startRound := int64(0)
	if opts.Resume != nil {
		total = opts.Resume.Clone()
		conv = total.Convergence
		total.Convergence = nil
		startRound = opts.ResumeRound
		// Re-derive the proposal the uninterrupted run would be using at
		// this round. Adapt is a pure function of the accumulated state
		// (not of the receiver chain), so one application to the original
		// sampler lands on the same proposal the round-by-round
		// adaptations would have produced.
		next, aerr := opts.adapted(cur, total)
		if aerr != nil {
			return opts.finish(total), aerr
		}
		cur = next
	}
	// finish restores the per-round convergence trace on every return
	// path that carries a campaign (normal stop, cancellation, hard
	// shard failure).
	finish := func() *Campaign {
		if total != nil && opts.TrackConvergence {
			total.Convergence = conv
		}
		return opts.finish(total)
	}
	for round := startRound; ; round++ {
		done := 0
		if total != nil {
			done = total.Est.N()
		}
		remaining := opts.MaxSamples - done
		if remaining <= 0 {
			break
		}
		// CheckEvery×nE can overflow; a round that would pass
		// remaining is cut to it without forming the product.
		roundN := remaining
		if opts.CheckEvery <= remaining/nE {
			roundN = opts.CheckEvery * nE
		}
		shardOpts := shardCampaignOptions(nE, roundN, copts, round)
		results, errs := runShards(ctx, engines, cur, shardOpts, agg)
		roundTotal, err := mergeShards(ctx, results, errs)
		if roundTotal != nil {
			if total == nil {
				total = roundTotal
			} else if merr := total.Merge(roundTotal); merr != nil {
				return finish(), merr
			}
			if opts.TrackConvergence {
				conv = append(conv, total.SSF())
			}
		}
		if err != nil {
			return finish(), err
		}
		if opts.Checkpoint != nil && total != nil {
			snap := total.Clone()
			if opts.TrackConvergence {
				snap.Convergence = append([]float64(nil), conv...)
			}
			opts.Checkpoint(round+1, snap)
		}
		for i := range engines {
			agg.rebase(i)
		}
		if opts.converged(total) {
			break
		}
		next, aerr := opts.adapted(cur, total)
		if aerr != nil {
			return finish(), aerr
		}
		cur = next
	}
	return finish(), nil
}
