package montecarlo_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/stats"
)

func TestCampaignMerge(t *testing.T) {
	ev := evaluation(t)
	o1 := montecarlo.CampaignOptions{Samples: 300, Seed: 1, TrackPatterns: true}
	o2 := montecarlo.CampaignOptions{Samples: 200, Seed: 2, TrackPatterns: true}
	c1, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), o1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), o2)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a single estimator over the union is what Merge must
	// reproduce.
	wantMean := (c1.SSF()*300 + c2.SSF()*200) / 500
	succ := c1.Successes + c2.Successes
	classes := [3]int{}
	for i := range classes {
		classes[i] = c1.ClassCounts[i] + c2.ClassCounts[i]
	}
	c1.Merge(c2)
	if c1.Est.N() != 500 {
		t.Fatalf("merged N = %d", c1.Est.N())
	}
	if math.Abs(c1.SSF()-wantMean) > 1e-12 {
		t.Errorf("merged SSF %v, want %v", c1.SSF(), wantMean)
	}
	if c1.Successes != succ || c1.ClassCounts != classes {
		t.Error("counters not merged")
	}
	if c1.Options.Samples != 500 {
		t.Errorf("merged sample count %d", c1.Options.Samples)
	}
}

// fixedSize is a fixed-size campaign of n samples for the round loop:
// MinSamples == MaxSamples needs no stopping criterion, and CheckEvery
// n runs it in one round.
func fixedSize(n int, seed int64) montecarlo.AdaptiveOptions {
	return montecarlo.AdaptiveOptions{Seed: seed, MinSamples: n, MaxSamples: n, CheckEvery: n}
}

func TestParallelCampaignMatchesSequentialStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := fixedSize(3000, 5)
	par, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Est.N() != 3000 {
		t.Fatalf("parallel N = %d", par.Est.N())
	}
	// Reproducibility: same engines, same seed -> identical result.
	par2, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.SSF() != par2.SSF() || par.Successes != par2.Successes {
		t.Error("parallel campaign not reproducible")
	}
	// Statistical agreement with a sequential campaign of the same
	// size (different streams, same distribution): class fractions
	// within a loose tolerance.
	seq, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), montecarlo.CampaignOptions{Samples: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fracPar := float64(par.ClassCounts[montecarlo.Masked]) / 3000
	fracSeq := float64(seq.ClassCounts[montecarlo.Masked]) / 3000
	if math.Abs(fracPar-fracSeq) > 0.05 {
		t.Errorf("masked fraction drifted: %v vs %v", fracPar, fracSeq)
	}
}

func TestParallelValidation(t *testing.T) {
	ev := evaluation(t)
	if _, err := montecarlo.RunAdaptiveParallel(context.Background(), nil, ev.RandomSampler(), fixedSize(10, 1)); err == nil {
		t.Error("no engines accepted")
	}
	engines, err := ev.CloneEngines(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), montecarlo.AdaptiveOptions{}); err == nil {
		t.Error("zero-valued options (no samples, no criterion) accepted")
	}
	c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), fixedSize(10, 1))
	if err != nil {
		t.Fatalf("fixed-size run without a criterion: %v", err)
	}
	if c.Est.N() != 10 {
		t.Errorf("fixed-size run of 10 ran %d samples", c.Est.N())
	}
}

func TestParallelUnevenSplit(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	// 100 samples over 3 engines: 34+33+33.
	c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), fixedSize(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Est.N() != 100 {
		t.Fatalf("N = %d", c.Est.N())
	}
}

func TestRunAdaptiveStops(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.DefaultAdaptive(0.01)
	opts.MinSamples = 500
	opts.CheckEvery = 250
	opts.MaxSamples = 20000
	c, err := ev.Engine.RunAdaptive(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Est.N() < opts.MinSamples {
		t.Fatalf("stopped at %d < MinSamples", c.Est.N())
	}
	if c.Est.N() > opts.MaxSamples {
		t.Fatalf("exceeded MaxSamples: %d", c.Est.N())
	}
	// The criterion must hold at the stopping point (unless the cap
	// hit first).
	if c.Est.N() < opts.MaxSamples && c.Est.LLNBound(opts.Epsilon) > opts.Risk {
		t.Errorf("stopped with bound %v > risk %v", c.Est.LLNBound(opts.Epsilon), opts.Risk)
	}
}

func TestRunAdaptiveTighterCriterionNeedsMore(t *testing.T) {
	ev := evaluation(t)
	loose := montecarlo.DefaultAdaptive(0.02)
	loose.MinSamples, loose.CheckEvery, loose.MaxSamples = 200, 200, 30000
	tight := loose
	tight.Epsilon = 0.002
	cl, err := ev.Engine.RunAdaptive(context.Background(), ev.RandomSampler(), loose)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ev.Engine.RunAdaptive(context.Background(), ev.RandomSampler(), tight)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Est.N() < cl.Est.N() {
		t.Errorf("tighter epsilon used fewer samples: %d vs %d", ct.Est.N(), cl.Est.N())
	}
}

func TestRunAdaptiveValidation(t *testing.T) {
	ev := evaluation(t)
	bad := montecarlo.DefaultAdaptive(0)
	if _, err := ev.Engine.RunAdaptive(context.Background(), ev.RandomSampler(), bad); err == nil {
		t.Error("epsilon 0 accepted")
	}
	bad = montecarlo.DefaultAdaptive(0.01)
	bad.Risk = 2
	if _, err := ev.Engine.RunAdaptive(context.Background(), ev.RandomSampler(), bad); err == nil {
		t.Error("risk 2 accepted")
	}
}

func TestCloneEnginesIndependent(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(2)
	if err != nil {
		t.Fatal(err)
	}
	if engines[0].SoC == engines[1].SoC || engines[0].SoC == ev.Engine.SoC {
		t.Error("engines share SoC state")
	}
	g0, g1 := engines[0].Golden(), engines[1].Golden()
	if g0.TargetCycle != g1.TargetCycle || g0.TargetCycle != ev.Golden.TargetCycle {
		t.Error("clone golden runs diverge")
	}
	_ = core.DefaultAttackSpec()
}

// TestRunAdaptiveNeverCertifiesZeroHits pins the stopping rule against
// an estimate with no successes: its variance is zero, so the weak-LLN
// bound alone certifies SSF 0 with a zero-width CI as soon as
// MinSamples is reached. On the default framework, this gate
// importance run (seed 7, CI half-width 1e-4) sees no success in its
// first 2000 samples; it must keep sampling until it has one.
func TestRunAdaptiveNeverCertifiesZeroHits(t *testing.T) {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.AdaptiveOptions{
		Mode:       montecarlo.GateAttack,
		Seed:       7,
		Epsilon:    1e-4,
		Risk:       1 / (stats.Z95 * stats.Z95),
		MinSamples: 2000,
		MaxSamples: 1 << 20,
		CheckEvery: 1000,
	}
	c, err := ev.Engine.RunAdaptive(context.Background(), sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Successes == 0 {
		t.Fatalf("stopped at %d samples with no success (SSF %g, CI %g)", c.Est.N(), c.SSF(), c.CIHalfWidth())
	}
	if c.Est.N() <= opts.MinSamples {
		t.Fatalf("stopped at %d samples, want past the zero-hit start", c.Est.N())
	}
}
