package montecarlo_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
)

// panicSampler delegates to an inner sampler until a global draw budget
// is exhausted, then panics — simulating a shard that dies mid-round.
type panicSampler struct {
	inner sampling.Sampler
	n     int64
	after int64
}

func (p *panicSampler) Name() string { return p.inner.Name() }

func (p *panicSampler) Draw(rng *rand.Rand) (fault.Sample, float64) {
	if atomic.AddInt64(&p.n, 1) > p.after {
		panic("injected sampler failure")
	}
	return p.inner.Draw(rng)
}

func (p *panicSampler) TimingProbs() []float64 { return p.inner.TimingProbs() }

// A shard failing in round 2 must not discard round 1: the partial
// campaign accumulated in earlier rounds comes back alongside the
// error, matching the documented cancellation behavior.
func TestRunAdaptiveParallelPartialOnShardFailure(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds of 3×100 samples; the budget of 450 draws completes round
	// 1 (300 draws) and dies partway into round 2.
	sp := &panicSampler{inner: ev.RandomSampler(), after: 450}
	opts := montecarlo.AdaptiveOptions{
		Epsilon:    1e-9, // unreachable: the run ends on the failure
		Risk:       0.05,
		MinSamples: 10000,
		MaxSamples: 10000,
		CheckEvery: 100,
		Seed:       21,
	}
	camp, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, sp, opts)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want shard panic error, got %v", err)
	}
	if camp == nil {
		t.Fatal("partial campaign discarded on shard failure")
	}
	if camp.Est.N() != 300 {
		t.Fatalf("partial campaign has %d samples, want the 300 of round 1", camp.Est.N())
	}
	if camp.Options.Samples != 300 {
		t.Errorf("Options.Samples = %d, want 300", camp.Options.Samples)
	}
}

func TestMergeRejectsMismatchedSampler(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 50, Seed: 1}
	c1, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	im, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ev.Engine.RunCampaign(context.Background(), im, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := c1.Est.State()
	if err := c1.Merge(c2); err == nil {
		t.Fatal("Merge accepted campaigns from different samplers")
	}
	if c1.Est.State() != before {
		t.Error("failed Merge mutated the receiver")
	}
}

func TestMergeRejectsMismatchedMode(t *testing.T) {
	ev := evaluation(t)
	c1, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(),
		montecarlo.CampaignOptions{Samples: 50, Seed: 1, Mode: montecarlo.GateAttack})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(),
		montecarlo.CampaignOptions{Samples: 50, Seed: 2, Mode: montecarlo.RegisterAttack})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(c2); err == nil {
		t.Fatal("Merge accepted campaigns from different attack modes")
	}
}

// Campaign snapshots must round-trip through JSON bit-identically —
// this is what makes server checkpoint resume exact across restarts.
func TestCampaignSnapshotJSONRoundTrip(t *testing.T) {
	ev := evaluation(t)
	im, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	c, err := ev.Engine.RunCampaign(context.Background(), im, montecarlo.CampaignOptions{
		Samples: 400, Seed: 3, TrackConvergence: true, TrackPatterns: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap montecarlo.CampaignSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	r := snap.Campaign()
	if r.Est.State() != c.Est.State() {
		t.Fatalf("estimator state changed: %+v vs %+v", r.Est.State(), c.Est.State())
	}
	if r.SSF() != c.SSF() || r.Successes != c.Successes || r.RTLCycles != c.RTLCycles {
		t.Error("scalar aggregates changed over the round trip")
	}
	if r.ClassCounts != c.ClassCounts || r.PathCounts != c.PathCounts {
		t.Error("histograms changed over the round trip")
	}
	if len(r.Convergence) != len(c.Convergence) {
		t.Fatalf("trace length %d vs %d", len(r.Convergence), len(c.Convergence))
	}
	for i := range r.Convergence {
		if r.Convergence[i] != c.Convergence[i] {
			t.Fatalf("trace entry %d changed: %v vs %v", i, r.Convergence[i], c.Convergence[i])
		}
	}
	if len(r.RegContribution) != len(c.RegContribution) {
		t.Fatal("register attribution changed size")
	}
	for k, v := range c.RegContribution {
		if r.RegContribution[k] != v {
			t.Fatalf("contribution of %v changed: %v vs %v", k, r.RegContribution[k], v)
		}
	}
	if len(r.Patterns) != len(c.Patterns) || len(r.PatternCounts) != len(c.PatternCounts) {
		t.Error("pattern sets changed over the round trip")
	}
}

// A run resumed from a JSON-round-tripped checkpoint must finish
// bit-identical to the uninterrupted run with the same options, on any
// pool: a checkpoint taken on 2 engines resumes on 1 and on 3.
func TestRunAdaptiveParallelResumeBitIdentical(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.AdaptiveOptions{
		MinSamples:       1200, // fixed-size: min == max pins the total
		MaxSamples:       1200,
		CheckEvery:       200, // 6 blocks: 3 rounds of 2 on 2 engines
		Seed:             9,
		TrackConvergence: true,
	}
	type cp struct {
		blocks int64
		data   []byte
	}
	var cps []cp
	opts.Checkpoint = func(blocks int64, total *montecarlo.Campaign) {
		data, err := json.Marshal(total.Snapshot())
		if err != nil {
			t.Error(err)
			return
		}
		cps = append(cps, cp{blocks: blocks, data: data})
	}
	full, err := montecarlo.RunAdaptiveParallel(context.Background(), engines[:2], ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 3 || cps[0].blocks != 2 {
		t.Fatalf("got %d checkpoints, the first after %d blocks; want 3, the first after 2", len(cps), cps[0].blocks)
	}
	// Resume from the first checkpoint (after round 1 of 3).
	opts.Checkpoint = nil
	for _, n := range []int{1, 3} {
		var snap montecarlo.CampaignSnapshot
		if err := json.Unmarshal(cps[0].data, &snap); err != nil {
			t.Fatal(err)
		}
		opts.Resume = snap.Campaign()
		resumed, err := montecarlo.RunAdaptiveParallel(context.Background(), engines[:n], ev.RandomSampler(), opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("resumed on %d engines", n)
		if resumed.Est.State() != full.Est.State() {
			t.Fatalf("%s: estimator %+v, uninterrupted %+v", label, resumed.Est.State(), full.Est.State())
		}
		compareCampaigns(t, label, resumed, full)
		if !reflect.DeepEqual(resumed.TDraws, full.TDraws) || !reflect.DeepEqual(resumed.THits, full.THits) {
			t.Errorf("%s: per-t tallies differ", label)
		}
	}
}

// TestResumeRejectsPartialBlock: a resumed total must be a whole number
// of blocks, or reach MaxSamples; otherwise the next block's seed would
// not be the one the uninterrupted run used.
func TestResumeRejectsPartialBlock(t *testing.T) {
	ev := evaluation(t)
	part, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), montecarlo.CampaignOptions{Samples: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.AdaptiveOptions{MinSamples: 400, MaxSamples: 400, CheckEvery: 100, Resume: part}
	if _, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts); err == nil || !strings.Contains(err.Error(), "whole number") {
		t.Errorf("resume of 150 samples in 100-sample blocks: error %v", err)
	}
	opts.MinSamples, opts.MaxSamples = 150, 150
	c, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts)
	if err != nil || c.Est.N() != 150 {
		t.Errorf("resume of a finished 150-sample answer: %v, %v", c, err)
	}
}

// TestRunAdaptiveResumeBitIdentical: a one-engine adaptive answer
// checkpoints after every block. A run stopped at its second checkpoint
// and resumed from the JSON round trip of that snapshot must finish
// bit-identical to the uninterrupted run.
func TestRunAdaptiveResumeBitIdentical(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.DefaultAdaptive(0.01)
	opts.Mode = montecarlo.RegisterAttack
	opts.Seed = 4
	opts.MinSamples, opts.CheckEvery, opts.MaxSamples = 600, 300, 20000
	opts.TrackConvergence = true
	full, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Est.N() <= 2*opts.CheckEvery || full.Est.N() >= opts.MaxSamples {
		t.Fatalf("uninterrupted run stopped at %d samples: the resume would be vacuous", full.Est.N())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stopBlocks int64
	var stopData []byte
	interrupted := opts
	interrupted.Checkpoint = func(blocks int64, total *montecarlo.Campaign) {
		if blocks != 2 {
			return
		}
		data, err := json.Marshal(total.Snapshot())
		if err != nil {
			t.Error(err)
		}
		stopBlocks, stopData = blocks, data
		cancel()
	}
	part, err := runAdaptive(ctx, ev, ev.RandomSampler(), interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if stopData == nil || part.Est.N() != 2*opts.CheckEvery {
		t.Fatalf("interrupted run: checkpoint after %d blocks, partial of %d samples", stopBlocks, part.Est.N())
	}

	var snap montecarlo.CampaignSnapshot
	if err := json.Unmarshal(stopData, &snap); err != nil {
		t.Fatal(err)
	}
	resumedOpts := opts
	resumedOpts.Resume = snap.Campaign()
	resumed, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), resumedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Est.State() != full.Est.State() || resumed.SSF() != full.SSF() {
		t.Fatalf("resumed estimator %+v, uninterrupted %+v", resumed.Est.State(), full.Est.State())
	}
	compareCampaigns(t, "resumed answer", resumed, full)
}
