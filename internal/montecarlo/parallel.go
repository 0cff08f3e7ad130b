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
// merge has no meaningful global sample order, so the receiver's trace
// is cleared to avoid misreading a partial trace as the whole
// campaign's (the round loop keeps its own per-block trace).
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

// runBlocks runs a round's blocks concurrently, block i on engine i,
// one goroutine each. Block panics are isolated: a panicking block
// surfaces as its engine's indexed error instead of crashing the
// process.
func runBlocks(ctx context.Context, engines []*Engine, sampler sampling.Sampler, blocks []CampaignOptions) ([]*Campaign, []error) {
	results := make([]*Campaign, len(blocks))
	errs := make([]error, len(blocks))
	var wg sync.WaitGroup
	for i := range blocks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("shard %d: panic: %v", i, r)
				}
			}()
			c, err := engines[i].RunCampaign(ctx, sampler, blocks[i])
			if err != nil {
				err = fmt.Errorf("shard %d: %w", i, err)
			}
			results[i], errs[i] = c, err
		}(i)
	}
	wg.Wait()
	return results, errs
}

// hardError joins a round's block errors other than the context's:
// cancellation is not a block failure, any other error (an isolated
// panic included) fails the whole round.
func hardError(ctx context.Context, errs []error) error {
	var hard []error
	for _, err := range errs {
		if err != nil && !(ctx.Err() != nil && errors.Is(err, ctx.Err())) {
			hard = append(hard, err)
		}
	}
	return errors.Join(hard...)
}

// commitBlocks folds a round's blocks into total in index order and
// returns the new total: with no total yet, the first committed block
// becomes it. Empty blocks are skipped. after runs once per committed
// block, and the rest of the round is discarded once it returns true.
func commitBlocks(total *Campaign, blocks []*Campaign, after func(*Campaign) bool) (*Campaign, error) {
	for i, c := range blocks {
		if c.Est.N() == 0 {
			continue
		}
		if total == nil {
			total = c
		} else if err := total.Merge(c); err != nil {
			return total, fmt.Errorf("shard %d: %w", i, err)
		}
		if after(total) {
			break
		}
	}
	return total, nil
}

// FixedSizeBlock is the block size (CheckEvery) with which ssfeval and
// the server's rank endpoint run fixed-size answers through
// RunAdaptiveParallel: one lane-batched window. The answer depends only
// on the seed and the sample count, so the pool size changes only the
// speed.
const FixedSizeBlock = batchWindow

// AdaptiveOptions configures RunAdaptiveParallel.
type AdaptiveOptions struct {
	// Mode and Seed as in CampaignOptions.
	Mode Mode
	Seed int64
	// TrackConvergence records the campaign's running estimate, one
	// entry per block: the total after each committed block. (A
	// per-sample trace comes from RunCampaign.)
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
	// CheckEvery is the block size: the answer is cut into blocks of
	// CheckEvery samples (the last one cut at MaxSamples), block k
	// seeded Seed·999983 + k, and the bound is checked after each.
	CheckEvery int
	// Progress, when non-nil, receives a snapshot of the total after
	// every committed block (see ProgressFunc). Snapshots report Total
	// as MaxSamples when MinSamples == MaxSamples, and as 0
	// (open-ended) otherwise.
	Progress ProgressFunc
	// Deprecated: ignored; every campaign runs the lane-batched loop.
	Batch bool
	// Resume continues a previously checkpointed campaign: the
	// accumulated total restored from a Checkpoint snapshot of the same
	// options. The next block is its sample count over CheckEvery, so a
	// resumed run is bit-identical to the uninterrupted run with the
	// same options on any pool, provided the snapshot round-tripped
	// exactly (CampaignSnapshot guarantees this, including through
	// JSON). A total whose mode, sampler name or seed differ from the
	// run's is rejected before any block runs, and so is one that is
	// not a whole number of blocks and is below MaxSamples.
	Resume *Campaign
	// AdaptProposal re-tunes the sampler after every block when it
	// implements sampling.Adaptive: the Importance sampler re-tilts
	// its timing distribution toward the observed per-stratum hit
	// rates, and the Stratified sampler switches to Neyman allocation
	// from the per-stratum variances. The re-tuned proposal is a pure
	// function of the accumulated campaign state, so checkpointed runs
	// resume bit-identically; weight-floor clamping
	// (sampling.DefaultAdaptFloor of the largest re-tuned weight) keeps
	// every stratum explored and the estimate unbiased. Each block then
	// needs the proposal of every block before it, so a round runs one
	// block. Non-adaptive samplers are unaffected.
	AdaptProposal bool
	// Checkpoint, when non-nil, is invoked after every round with the
	// number of committed blocks and a deep copy of the accumulated
	// campaign (safe to retain and serialize; its Convergence holds the
	// per-block trace when TrackConvergence is set). Feed the copy back
	// through Resume to continue after an interruption. The callback
	// runs on the orchestrating goroutine between rounds; it must not
	// call back into the engines.
	Checkpoint func(blocks int64, total *Campaign)
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
// of the effort bounds and of the block size (DefaultAdaptive's).
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
		o.CheckEvery = DefaultAdaptive(0).CheckEvery
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

// adapts reports whether the run re-tunes sampler s between blocks.
func (o *AdaptiveOptions) adapts(s sampling.Sampler) bool {
	_, ok := s.(sampling.Adaptive)
	return o.AdaptProposal && ok
}

// adapted re-tunes the sampler from the accumulated campaign between
// blocks (no-op unless the run adapts). Determinism: the result depends
// only on (sampler, total).
func (o *AdaptiveOptions) adapted(s sampling.Sampler, total *Campaign) (sampling.Sampler, error) {
	if !o.adapts(s) || total == nil {
		return s, nil
	}
	return s.(sampling.Adaptive).Adapt(sampling.AdaptState{
		Draws:  total.TDraws,
		Hits:   total.THits,
		Strata: total.Strata,
	})
}

// RunAdaptiveParallel samples until the weak-LLN convergence bound the
// paper quotes drops below the requested risk ("the whole process is
// continued until the empirical estimate converges"), or to MaxSamples,
// and returns the campaign. It cuts the answer into blocks of
// CheckEvery samples, block k seeded Seed·999983 + k, and runs up to
// one block per engine at a time; the blocks commit into the total in
// index order, with the bound checked after each, so the answer depends
// only on the options, not on the number of engines or on scheduling.
// Every engine must target the same design/benchmark/attack and have
// completed its golden run (a pool built with Engine.Clone shares one);
// the blocks draw from the shared sampler (samplers built by
// internal/sampling are safe for concurrent Draw with distinct rngs). A
// fixed-size run (MinSamples == MaxSamples) is the campaign of that
// many samples. Progress reports the total after each committed block,
// on the calling goroutine.
//
// Cancellation returns the partial campaign alongside the context's
// error. A panicking or failing block surfaces as an indexed error
// ("shard %d: ...", the engine's index) and ends the campaign, but the
// rounds committed before the failing round are not discarded: the
// partial campaign is returned alongside the error, exactly as on
// cancellation. (The failing round's own blocks are dropped.)
func RunAdaptiveParallel(ctx context.Context, engines []*Engine, sampler sampling.Sampler, opts AdaptiveOptions) (*Campaign, error) {
	if err := validateEngines(engines); err != nil {
		return nil, err
	}
	if err := opts.sanitize(); err != nil {
		return nil, err
	}
	perRound := len(engines)
	if opts.adapts(sampler) {
		perRound = 1
	}
	if r := opts.Resume; r != nil && (r.Options.Mode != opts.Mode || r.SamplerName != sampler.Name() || r.Options.Seed != opts.Seed) {
		return nil, fmt.Errorf("montecarlo: cannot resume a %s %v campaign of seed %d as a %s %v answer of seed %d",
			r.SamplerName, r.Options.Mode, r.Options.Seed, sampler.Name(), opts.Mode, opts.Seed)
	}
	seed0 := opts.Seed * 999983
	var total *Campaign
	var conv []float64
	// finish restores the per-block convergence trace on every return
	// path that carries a campaign (normal stop, cancellation, failure).
	finish := func() *Campaign {
		if total != nil && opts.TrackConvergence {
			total.Convergence = conv
		}
		return total
	}
	cur := sampler
	next := int64(0) // index of the next block
	if opts.Resume != nil {
		total = opts.Resume.Clone()
		conv = total.Convergence
		total.Convergence = nil
		n := total.Est.N()
		if n%opts.CheckEvery != 0 && n < opts.MaxSamples {
			return nil, fmt.Errorf("montecarlo: resumed campaign of %d samples is not a whole number of %d-sample blocks", n, opts.CheckEvery)
		}
		next = int64(n / opts.CheckEvery)
		// Re-derive the proposal the uninterrupted run would be using at
		// this block. Adapt is a pure function of the accumulated state
		// (not of the receiver chain), so one application to the original
		// sampler lands on the same proposal the block-by-block
		// adaptations would have produced.
		adapted, err := opts.adapted(cur, total)
		if err != nil {
			return finish(), err
		}
		cur = adapted
	}
	size, resumed := 0, 0 // Progress.Total 0: open-ended
	if opts.MinSamples == opts.MaxSamples {
		size = opts.MaxSamples
	}
	if total != nil {
		resumed = total.Est.N()
	}
	rep := newReporter(opts.Progress, size, resumed)
	blocks := make([]CampaignOptions, 0, perRound)
	for {
		planned := 0
		if total != nil {
			planned = total.Est.N()
		}
		// Block sizes come from the samples still to plan, never from
		// k·CheckEvery, which can overflow.
		blocks = blocks[:0]
		for len(blocks) < perRound && planned < opts.MaxSamples {
			b := CampaignOptions{
				Mode:    opts.Mode,
				Samples: min(opts.CheckEvery, opts.MaxSamples-planned),
				Seed:    seed0 + next + int64(len(blocks)),
			}
			planned += b.Samples
			blocks = append(blocks, b)
		}
		if len(blocks) == 0 {
			break
		}
		results, errs := runBlocks(ctx, engines, cur, blocks)
		if err := hardError(ctx, errs); err != nil {
			return finish(), err
		}
		// A cancelled round commits whatever its blocks evaluated and
		// ends the run; otherwise the rule is checked after each block.
		cancelled := ctx.Err()
		stop := false
		var err error
		total, err = commitBlocks(total, results, func(t *Campaign) bool {
			// The total carries the answer's seed, not its first block's.
			t.Options.Seed = opts.Seed
			next++
			if opts.TrackConvergence {
				conv = append(conv, t.SSF())
			}
			stop = cancelled == nil && opts.converged(t)
			rep.report(t)
			return stop
		})
		if err != nil {
			return finish(), err
		}
		if cancelled != nil {
			return finish(), cancelled
		}
		if opts.Checkpoint != nil {
			snap := total.Clone()
			if opts.TrackConvergence {
				snap.Convergence = append([]float64(nil), conv...)
			}
			opts.Checkpoint(next, snap)
		}
		if stop {
			break
		}
		adapted, err := opts.adapted(cur, total)
		if err != nil {
			return finish(), err
		}
		cur = adapted
	}
	return finish(), nil
}
