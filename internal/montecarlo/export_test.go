package montecarlo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/sampling"
	"repro/internal/soc"
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
// lookup, from the spot records of the engine's attack. It builds the
// model's gate tables if no gate campaign has yet.
func (e *Engine) SpotRecordRejects(s fault.Sample) bool {
	gt := e.tablesFor(GateAttack)
	i := e.m.golden.TargetCycle - s.T - e.m.lo
	return !gt.spots.mayLatch(gt.cycle[i], i, s)
}

// WindowSnapshots returns the first cycle of the model's window
// snapshots and the snapshots, one per cycle from it.
func (e *Engine) WindowSnapshots() (first int, snaps []*soc.Checkpoint) {
	return e.m.snapLo, e.m.snaps
}

// StepFromCheckpoint rewinds the engine's SoC to the cycle from the
// latest golden checkpoint at or before it, reading no window snapshot.
func (e *Engine) StepFromCheckpoint(cycle int) { e.m.golden.stepTo(e.SoC, cycle) }

// GateTablesBuilt reports whether the model's gate tables exist yet.
func (e *Engine) GateTablesBuilt() bool { return e.m.gate.cycle != nil }

// ModelDigest hashes the contents of the engine's model: the golden
// checkpoints, the window snapshots and fault-free node values, and the
// cycle tables and spot records once they are built.
func (e *Engine) ModelDigest() string {
	m := e.m
	h := sha256.New()
	for _, cp := range m.golden.Checkpoints {
		fmt.Fprint(h, *cp)
	}
	for _, cp := range m.snaps {
		fmt.Fprint(h, *cp)
	}
	fmt.Fprint(h, m.snapLo, m.lo, m.markedResp, m.comb)
	for _, ct := range m.gate.cycle {
		fmt.Fprint(h, *ct)
	}
	if m.gate.spots != nil {
		fmt.Fprint(h, *m.gate.spots)
	}
	return hex.EncodeToString(h.Sum(nil))
}
