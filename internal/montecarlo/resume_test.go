package montecarlo_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
	for _, c := range cps {
		var snap montecarlo.CampaignSnapshot
		if err := json.Unmarshal(c.data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Seed != opts.Seed || snap.Samples != snap.Est.N {
			t.Errorf("checkpoint after %d blocks carries seed %d and %d samples, want seed %d and %d", c.blocks, snap.Seed, snap.Samples, opts.Seed, snap.Est.N)
		}
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
	opts := montecarlo.AdaptiveOptions{MinSamples: 400, MaxSamples: 400, CheckEvery: 100, Seed: 1, Resume: part}
	if _, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts); err == nil || !strings.Contains(err.Error(), "whole number") {
		t.Errorf("resume of 150 samples in 100-sample blocks: error %v", err)
	}
	opts.MinSamples, opts.MaxSamples = 150, 150
	c, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts)
	if err != nil || c.Est.N() != 150 {
		t.Errorf("resume of a finished 150-sample answer: %v, %v", c, err)
	}
}

// TestResumeRejectsAnotherAnswer: a checkpoint resumes only the answer
// it was taken from. A total of another mode, sampler or seed is
// rejected before any block runs, which includes a checkpoint of a seed
// that carried its first block's seed, Seed·999983.
func TestResumeRejectsAnotherAnswer(t *testing.T) {
	ev := evaluation(t)
	im, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.AdaptiveOptions{MinSamples: 600, MaxSamples: 600, CheckEvery: 200, Seed: 7}
	var first *montecarlo.Campaign
	opts.Checkpoint = func(_ int64, total *montecarlo.Campaign) {
		if first == nil {
			first = total
		}
	}
	if _, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts); err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = nil
	for _, c := range []struct {
		name    string
		sampler sampling.Sampler
		change  func(*montecarlo.AdaptiveOptions)
	}{
		{"seed", ev.RandomSampler(), func(o *montecarlo.AdaptiveOptions) { o.Seed = 8 }},
		{"first block's seed", ev.RandomSampler(), func(o *montecarlo.AdaptiveOptions) { o.Seed = 7 * 999983 }},
		{"mode", ev.RandomSampler(), func(o *montecarlo.AdaptiveOptions) { o.Mode = montecarlo.RegisterAttack }},
		{"sampler", im, func(*montecarlo.AdaptiveOptions) {}},
	} {
		o := opts
		c.change(&o)
		o.Resume = first
		sp := &drawRecorder{Sampler: c.sampler}
		camp, err := runAdaptive(context.Background(), ev, sp, o)
		if err == nil || !strings.Contains(err.Error(), "cannot resume") || camp != nil {
			t.Errorf("%s: resumed with %v, %v", c.name, camp, err)
		}
		if sp.draws != 0 {
			t.Errorf("%s: ran %d draws before rejecting the resume", c.name, sp.draws)
		}
	}
	o := opts
	o.Resume = first
	if c, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), o); err != nil || c.Est.N() != 600 || c.Options.Seed != 7 {
		t.Errorf("resume of its own answer: %v, %v", c, err)
	}
}

// TestValidateRejectsImpossibleSnapshots: Validate accepts a real
// checkpoint and rejects every state accumulation cannot produce,
// including a negative m2 that resumed into a wrong answer.
func TestValidateRejectsImpossibleSnapshots(t *testing.T) {
	ev := evaluation(t)
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(),
		montecarlo.CampaignOptions{Samples: 2000, Mode: montecarlo.RegisterAttack, Seed: 1, TrackPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Successes == 0 || len(c.PatternCounts) == 0 {
		t.Fatalf("campaign with %d successes and %d pattern classes", c.Successes, len(c.PatternCounts))
	}
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	decoded := func() *montecarlo.CampaignSnapshot {
		var s montecarlo.CampaignSnapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	if err := decoded().Validate(); err != nil {
		t.Fatalf("real checkpoint rejected: %v", err)
	}
	for _, m := range []struct {
		name   string
		mutate func(*montecarlo.CampaignSnapshot)
	}{
		{"negative m2", func(s *montecarlo.CampaignSnapshot) { s.Est.M2 = -5 }},
		{"NaN m2", func(s *montecarlo.CampaignSnapshot) { s.Est.M2 = math.NaN() }},
		{"infinite mean", func(s *montecarlo.CampaignSnapshot) { s.Est.Mean = math.Inf(1) }},
		{"negative mean", func(s *montecarlo.CampaignSnapshot) { s.Est.Mean = -s.Est.Mean }},
		{"negative weight sum", func(s *montecarlo.CampaignSnapshot) { s.Weights.SumW = -1 }},
		{"infinite squared weight sum", func(s *montecarlo.CampaignSnapshot) { s.Weights.SumW2 = math.Inf(1) }},
		{"negative count", func(s *montecarlo.CampaignSnapshot) { s.ClassCounts[1] += s.ClassCounts[0] + 1; s.ClassCounts[0] = -1 }},
		{"negative RTL cycles", func(s *montecarlo.CampaignSnapshot) { s.RTLCycles = -1 }},
		{"samples", func(s *montecarlo.CampaignSnapshot) { s.Samples++ }},
		{"weight count", func(s *montecarlo.CampaignSnapshot) { s.Weights.N-- }},
		{"class counts", func(s *montecarlo.CampaignSnapshot) { s.ClassCounts[0]++ }},
		{"path counts", func(s *montecarlo.CampaignSnapshot) { s.PathCounts[0]-- }},
		{"per-t draws", func(s *montecarlo.CampaignSnapshot) { s.TDraws[0]++ }},
		{"successes over hits", func(s *montecarlo.CampaignSnapshot) { s.Successes++ }},
		{"successes beyond the samples", func(s *montecarlo.CampaignSnapshot) {
			s.Successes, s.THits = s.Est.N+1, []int{s.Est.N + 1}
		}},
		{"hits beyond draws", func(s *montecarlo.CampaignSnapshot) {
			s.THits = make([]int, len(s.TDraws))
			s.THits[0] = s.TDraws[0] + 1
			s.Successes = s.THits[0]
		}},
		{"hits past the last draw", func(s *montecarlo.CampaignSnapshot) {
			s.THits = append(make([]int, len(s.TDraws)), s.Successes)
		}},
		{"negative pattern count", func(s *montecarlo.CampaignSnapshot) {
			for k := range s.PatternHist {
				s.PatternHist[k] = -1
			}
		}},
	} {
		s := decoded()
		m.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
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
