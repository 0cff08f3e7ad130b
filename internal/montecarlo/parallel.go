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
// the whole campaign's (the round loop keeps its own per-round trace).
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
		if e == nil || e.m == nil {
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
// is independent of goroutine scheduling. The fold target is the first
// contributing shard itself: the round loop keeps no shard campaign
// past its merge. Cancellation is not a shard failure: when the only
// errors are the context's, the partial shards are merged and returned
// alongside the context error. Any other shard error (including an
// isolated panic) fails the whole campaign.
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
			merged = r
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
// round of n total samples: an even split (earlier shards take the
// remainder), with shard i of round r seeded seed0 + r·engines + i.
func shardCampaignOptions(engines int, n int, opts CampaignOptions, seed0, round int64) []CampaignOptions {
	base := n / engines
	extra := n % engines
	out := make([]CampaignOptions, engines)
	for i := range out {
		so := opts
		so.Samples = base
		if i < extra {
			so.Samples++
		}
		so.Seed = seed0 + round*int64(engines) + int64(i)
		out[i] = so
	}
	return out
}

// AdaptiveOptions configures RunAdaptive and RunAdaptiveParallel.
type AdaptiveOptions struct {
	// Mode, Seed, TrackPatterns as in CampaignOptions.
	Mode          Mode
	Seed          int64
	TrackPatterns bool
	// TrackConvergence records the campaign's running estimate, one
	// entry per round: the merged estimate after each round. (The
	// per-sample order across shards is not meaningful; a per-sample
	// trace comes from RunCampaign.)
	TrackConvergence bool
	// Epsilon and Risk define the stopping criterion via the paper's
	// weak-LLN bound: stop once
	// Pr[|estimate − SSF| ≥ Epsilon] ≤ Risk, i.e.
	// variance/(N·Epsilon²) ≤ Risk. A fixed-size run (MinSamples ==
	// MaxSamples ≥ 1) needs no criterion: it cannot stop before
	// MaxSamples, so Epsilon and Risk are not consulted.
	Epsilon, Risk float64
	// MinSamples guards against stopping on a premature zero-variance
	// streak; MaxSamples bounds the total effort.
	MinSamples, MaxSamples int
	// CheckEvery controls how often the bound is evaluated: each engine
	// contributes CheckEvery samples per round, so the bound is checked
	// every CheckEvery×engines samples. A fixed-size run with CheckEvery
	// ≥ MaxSamples runs in one round.
	CheckEvery int
	// Progress and ProgressEvery as in CampaignOptions; snapshots
	// report Total as MaxSamples when MinSamples == MaxSamples, and as
	// 0 (open-ended) otherwise.
	Progress      ProgressFunc
	ProgressEvery int
	// Deprecated: ignored; every campaign runs the lane-batched loop.
	Batch bool
	// Resume continues a previously checkpointed campaign: the
	// accumulated total restored from a Checkpoint snapshot of the same
	// options. ResumeRound is the number of rounds that snapshot had
	// completed — the round counter (and with it the deterministic
	// per-(round, shard) seeds) continues from there, so a resumed run
	// is bit-identical to the uninterrupted run with the same options
	// and engine count, provided the snapshot round-tripped exactly
	// (CampaignSnapshot guarantees this, including through JSON).
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
	// Checkpoint, when non-nil, is invoked after every merged round with
	// the number of completed rounds and a deep copy of the accumulated
	// campaign (safe to retain and serialize; its Convergence holds the
	// per-round trace when TrackConvergence is set). Feed the copy back
	// through Resume/ResumeRound to continue after an interruption. The
	// callback runs on the orchestrating goroutine between rounds; it
	// must not call back into the engines.
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

// sanitize validates the stopping criterion, which a fixed-size run
// (MinSamples == MaxSamples ≥ 1) does without, and applies the defaults
// RunAdaptive has always applied to the effort bounds.
func (o *AdaptiveOptions) sanitize() error {
	fixed := o.MinSamples >= 1 && o.MinSamples == o.MaxSamples
	if !fixed && (o.Epsilon <= 0 || o.Risk <= 0 || o.Risk >= 1) {
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
// It is the round loop of RunAdaptiveParallel on this one engine, with
// rounds of CheckEvery samples seeded Seed·999983 + round (so its
// answers differ from a one-engine RunAdaptiveParallel, whose seeds
// start at Seed·1000003). Cancellation via ctx returns the partial
// campaign accumulated so far alongside the context's error.
func (e *Engine) RunAdaptive(ctx context.Context, sampler sampling.Sampler, opts AdaptiveOptions) (*Campaign, error) {
	return runRounds(ctx, []*Engine{e}, sampler, opts, opts.Seed*999983)
}

// RunAdaptiveParallel runs rounds across the engine pool (CheckEvery
// samples per engine per round) and evaluates the weak-LLN stopping
// bound on the merged estimator between rounds, so it stops within one
// round of the criterion being met. Every engine must target the same
// design/benchmark/attack and have completed its golden run (a pool
// built with Engine.Clone shares one); shards
// draw from the shared sampler (samplers built by internal/sampling
// are safe for concurrent Draw with distinct rngs). Per-(round, shard)
// seeds are derived deterministically from Seed·1000003 and shards
// merge in index order, making the result reproducible and independent
// of scheduling. A fixed-size run (MinSamples == MaxSamples) is the
// parallel campaign of that many samples.
//
// Cancellation returns the merged partial campaign alongside the
// context's error. A panicking or failing shard surfaces as an indexed
// error ("shard %d: ...") and ends the campaign, but the rounds
// accumulated before the failing round are not discarded: the partial
// campaign is returned alongside the error, exactly as on cancellation.
// (The failing round's own shards are dropped — a half-merged round
// would not be resumable.)
func RunAdaptiveParallel(ctx context.Context, engines []*Engine, sampler sampling.Sampler, opts AdaptiveOptions) (*Campaign, error) {
	return runRounds(ctx, engines, sampler, opts, opts.Seed*1000003)
}

// runRounds is the round loop under RunAdaptive and
// RunAdaptiveParallel. Round r runs one shard per engine, shard i
// seeded seed0 + r·len(engines) + i, merges the shards into the
// running total, and checkpoints; the loop stops once the total meets
// the criterion or MaxSamples.
func runRounds(ctx context.Context, engines []*Engine, sampler sampling.Sampler, opts AdaptiveOptions, seed0 int64) (*Campaign, error) {
	if err := validateEngines(engines); err != nil {
		return nil, err
	}
	if err := opts.sanitize(); err != nil {
		return nil, err
	}
	nE := len(engines)
	size := 0 // open-ended
	if opts.MinSamples == opts.MaxSamples {
		size = opts.MaxSamples
	}
	agg := newProgressAgg(opts.Progress, opts.ProgressEvery, size, nE)
	copts := CampaignOptions{
		Mode:          opts.Mode,
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
		shardOpts := shardCampaignOptions(nE, roundN, copts, seed0, round)
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
