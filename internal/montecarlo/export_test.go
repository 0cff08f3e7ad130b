package montecarlo

import (
	"context"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/sampling"
)

// RunCampaignScalar is RunCampaign over the scalar sample loop: every
// draw runs through RunOnce, which injects with the unpruned sweep (the
// dense reference sweep when the engine's simulator is set to it) and
// resumes RTL one sample at a time, with no latch bound, spot record or
// lane batch. It is the reference the campaign equivalence tests
// compare RunCampaign against. It reports no progress.
func (e *Engine) RunCampaignScalar(ctx context.Context, sampler sampling.Sampler, opts CampaignOptions) (*Campaign, error) {
	c, sampler, err := e.newCampaign(sampler, opts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	layout := e.patternLayout(opts)
	st, _ := sampler.(sampling.Stratal)
	for range opts.Samples {
		if err := ctx.Err(); err != nil {
			c.Options.Samples = c.Est.N()
			return c, err
		}
		sample, weight := sampler.Draw(rng)
		res := e.RunOnce(rng, sample, opts.Mode)
		e.accumulate(c, &opts, layout, st, sample, weight, &res)
	}
	return c, nil
}

// ShardCampaignOptions exposes the per-engine shard options of one
// RunAdaptiveParallel round (see shardCampaignOptions), seeded from
// opts.Seed as RunAdaptiveParallel seeds them.
func ShardCampaignOptions(engines, n int, opts CampaignOptions, round int64) []CampaignOptions {
	return shardCampaignOptions(engines, n, opts, opts.Seed*1000003, round)
}

// BatchCounts exposes the batched-resume counters to the external tests
// (see batchCounts). All are zero before the first batched run.
type BatchCounts = batchCounts

// BatchCounts returns the engine's batched-resume counters so far.
func (e *Engine) BatchCounts() BatchCounts {
	if e.batch == nil {
		return BatchCounts{}
	}
	return e.batch.counts
}

// DropSpotCache discards the engine's radius-query cache, so the next
// spot lookup rebuilds it from the placement.
func (e *Engine) DropSpotCache() { e.spots = nil }

// SpotRecordRejects reports whether the batched path rejects a
// single-cycle gate sample in the attack window before its spot
// lookup, from the spot records of the engine's attack. It builds what
// the first gate-attack sample builds.
func (e *Engine) SpotRecordRejects(s fault.Sample) bool {
	b := e.ensureBatchState(GateAttack)
	i := e.golden.TargetCycle - s.T - b.lo
	return !b.spots.mayLatch(b.cycle[i], i, s)
}
