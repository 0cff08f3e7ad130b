package montecarlo_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
)

// varianceImportance builds the importance proposal for an evaluation's
// attack (the building block of the stratified sampler).
func varianceImportance(t *testing.T, ev *core.Evaluation) *sampling.Importance {
	t.Helper()
	fw := framework(t)
	im, err := sampling.NewImportance(ev.Attack, fw.Char, fw.MPU.Netlist, fw.Place, sampling.DefaultAlpha, sampling.DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func varianceStratified(t *testing.T, ev *core.Evaluation) *sampling.Stratified {
	t.Helper()
	sp, err := sampling.NewStratified(varianceImportance(t, ev))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestStratifiedCampaignScalarBatchedIdentical: the lane-batched
// campaign loop must reproduce the stratified campaign of the scalar
// reference loop bit-for-bit — estimator, per-stratum state, tallies,
// and trace.
func TestStratifiedCampaignScalarBatchedIdentical(t *testing.T) {
	ev := concentratedEvaluation(t)
	sp := varianceStratified(t, ev)
	// 2048 + 452 draws: the final window is partial.
	opts := montecarlo.CampaignOptions{Samples: 2500, Seed: 5, TrackConvergence: true}
	scalar, err := ev.Engine.RunCampaignScalar(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := ev.Engine.RunCampaign(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Strata == nil || batched.Strata == nil {
		t.Fatal("stratified campaign did not track per-stratum state")
	}
	if scalar.Strata.TotalHits() == 0 {
		t.Fatal("no hits — the comparison would be vacuous")
	}
	if !reflect.DeepEqual(batched.Strata.State(), scalar.Strata.State()) {
		t.Error("per-stratum state differs between scalar and batched runs")
	}
	if batched.SSF() != scalar.SSF() {
		t.Errorf("SSF %g != scalar %g", batched.SSF(), scalar.SSF())
	}
	if batched.Est.State() != scalar.Est.State() {
		t.Error("plain estimator state differs")
	}
	if batched.Weights.State() != scalar.Weights.State() {
		t.Error("weight moments differ")
	}
	if !reflect.DeepEqual(batched.TDraws, scalar.TDraws) || !reflect.DeepEqual(batched.THits, scalar.THits) {
		t.Error("per-t tallies differ")
	}
	if batched.Successes != scalar.Successes || batched.RTLCycles != scalar.RTLCycles {
		t.Error("success/RTL accounting differs")
	}
	if !reflect.DeepEqual(batched.Convergence, scalar.Convergence) {
		t.Error("convergence traces differ")
	}
}

// TestStratifiedDisjointForkMergeMatchesSequential is the campaign-level
// merge guarantee: two campaigns over complementary stratum subsets
// (ForkStrata), run with the sequential campaign's seed, merge into
// exactly the sequential campaign's per-stratum state — bit for bit —
// because per-stratum streams depend only on per-stratum draw counts.
func TestStratifiedDisjointForkMergeMatchesSequential(t *testing.T) {
	ev := concentratedEvaluation(t)
	sp := varianceStratified(t, ev)
	ctx := context.Background()
	opts := montecarlo.CampaignOptions{Samples: 3000, Seed: 9}
	full, err := ev.Engine.RunCampaign(ctx, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Strata.TotalHits() == 0 {
		t.Fatal("no hits — the comparison would be vacuous")
	}

	even := func(k int) bool { return k%2 == 0 }
	odd := func(k int) bool { return k%2 == 1 }
	part := func(include func(int) bool) *montecarlo.Campaign {
		n := 0
		for k := 0; k < full.Strata.K(); k++ {
			if include(k) {
				n += full.Strata.StratumN(k)
			}
		}
		sub, err := sp.ForkStrata(1, include) // fork seed replaced by opts.Seed inside the run
		if err != nil {
			t.Fatal(err)
		}
		c, err := ev.Engine.RunCampaign(ctx, sub, montecarlo.CampaignOptions{Samples: n, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	merged := part(even).Clone()
	if err := merged.Merge(part(odd)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Strata.State(), full.Strata.State()) {
		t.Fatal("merged per-stratum state differs from the sequential run")
	}
	if merged.SSF() != full.SSF() {
		t.Fatalf("merged SSF %v, sequential %v", merged.SSF(), full.SSF())
	}
	if merged.Successes != full.Successes {
		t.Errorf("merged successes %d, sequential %d", merged.Successes, full.Successes)
	}
	if !reflect.DeepEqual(merged.TDraws, full.TDraws) || !reflect.DeepEqual(merged.THits, full.THits) {
		t.Error("merged per-t tallies differ from the sequential run")
	}
}

// TestVarianceStateSnapshotRoundTrip: the stratified campaign state —
// strata, weight moments, tallies — survives Snapshot → JSON → Campaign
// → Snapshot bit-identically.
func TestVarianceStateSnapshotRoundTrip(t *testing.T) {
	ev := concentratedEvaluation(t)
	c, err := ev.Engine.RunCampaign(context.Background(), varianceStratified(t, ev),
		montecarlo.CampaignOptions{Samples: 1500, Seed: 4, TrackConvergence: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Strata == nil {
		t.Fatal("stratified snapshot lost per-stratum state")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back montecarlo.CampaignSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restored := back.Campaign()
	if !reflect.DeepEqual(restored.Snapshot(), snap) {
		t.Fatal("snapshot changed over the round trip")
	}
	if restored.SSF() != c.SSF() {
		t.Fatalf("SSF %v != %v after round trip", restored.SSF(), c.SSF())
	}
	if restored.Weights.State() != c.Weights.State() {
		t.Fatal("weight moments changed")
	}
	// A restored campaign must stay mergeable with a live one.
	if err := restored.Merge(c.Clone()); err != nil {
		t.Fatalf("restored campaign rejects merge: %v", err)
	}
}

// TestMergeRejectsMismatchedVarianceState: merging unstratified into
// stratified must fail without mutating the receiver.
func TestMergeRejectsMismatchedVarianceState(t *testing.T) {
	ev := concentratedEvaluation(t)
	c, err := ev.Engine.RunCampaign(context.Background(), varianceStratified(t, ev),
		montecarlo.CampaignOptions{Samples: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bare := c.Clone()
	bare.Strata = nil
	recv := c.Clone()
	if err := recv.Merge(bare); err == nil {
		t.Error("stratified merged with unstratified")
	}
	if !reflect.DeepEqual(recv.Snapshot(), c.Snapshot()) {
		t.Error("failed merge mutated the receiver")
	}
}

// TestStratifiedAdaptResumeBitIdentical composes everything the
// checkpointing path must preserve: stratified sampler, Neyman proposal
// re-tuning after every block, an engine pool, and a JSON-round-tripped
// checkpoint — the resumed run must be bit-identical to the
// uninterrupted one. A block needs the proposal adapted from every
// block before it, so each round runs one block and checkpoints.
func TestStratifiedAdaptResumeBitIdentical(t *testing.T) {
	ev := concentratedEvaluation(t)
	engines, err := ev.CloneEngines(2)
	if err != nil {
		t.Fatal(err)
	}
	sp := varianceStratified(t, ev)
	opts := montecarlo.AdaptiveOptions{
		Epsilon:          1, // fixed-size: min == max pins the total
		Risk:             0.5,
		MinSamples:       1800,
		MaxSamples:       1800,
		CheckEvery:       300, // 6 blocks, one per round
		Seed:             9,
		TrackConvergence: true,
		AdaptProposal:    true,
	}
	var checkpoints [][]byte
	opts.Checkpoint = func(rounds int64, total *montecarlo.Campaign) {
		data, err := json.Marshal(total.Snapshot())
		if err != nil {
			t.Error(err)
			return
		}
		checkpoints = append(checkpoints, data)
	}
	full, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) != 6 {
		t.Fatalf("got %d checkpoints, want 6", len(checkpoints))
	}
	if full.Strata.TotalHits() == 0 {
		t.Fatal("no hits — adaptation never had a signal")
	}
	var snap montecarlo.CampaignSnapshot
	if err := json.Unmarshal(checkpoints[0], &snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = nil
	opts.Resume = snap.Campaign()
	resumed, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Est.State() != full.Est.State() {
		t.Fatalf("resumed estimator %+v, uninterrupted %+v", resumed.Est.State(), full.Est.State())
	}
	if !reflect.DeepEqual(resumed.Strata.State(), full.Strata.State()) {
		t.Fatal("resumed per-stratum state differs from the uninterrupted run")
	}
	if resumed.SSF() != full.SSF() {
		t.Fatalf("resumed SSF %v, uninterrupted %v", resumed.SSF(), full.SSF())
	}
	if !reflect.DeepEqual(resumed.TDraws, full.TDraws) || !reflect.DeepEqual(resumed.THits, full.THits) {
		t.Error("resumed per-t tallies differ")
	}
	if !reflect.DeepEqual(resumed.Convergence, full.Convergence) {
		t.Error("resumed trace differs")
	}
}

// TestAdaptiveProposalSequentialReproducible: a one-engine adaptive
// run with proposal re-tuning is a pure function of its options — two
// runs agree bit-for-bit.
func TestAdaptiveProposalSequentialReproducible(t *testing.T) {
	ev := concentratedEvaluation(t)
	sp := varianceStratified(t, ev)
	opts := montecarlo.AdaptiveOptions{
		Epsilon:       1,
		Risk:          0.5,
		MinSamples:    1200,
		MaxSamples:    1200,
		CheckEvery:    400,
		Seed:          6,
		AdaptProposal: true,
	}
	a, err := runAdaptive(context.Background(), ev, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runAdaptive(context.Background(), ev, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Est.State() != b.Est.State() || a.SSF() != b.SSF() {
		t.Fatal("sequential adaptive runs with equal options diverged")
	}
	if !reflect.DeepEqual(a.Strata.State(), b.Strata.State()) {
		t.Fatal("per-stratum state diverged")
	}
}
