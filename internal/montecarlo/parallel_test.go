package montecarlo_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
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
// MinSamples == MaxSamples needs no stopping criterion, and blocks of
// FixedSizeBlock samples run it as ssfeval and the rank endpoint do.
func fixedSize(n int, seed int64) montecarlo.AdaptiveOptions {
	return montecarlo.AdaptiveOptions{Seed: seed, MinSamples: n, MaxSamples: n, CheckEvery: montecarlo.FixedSizeBlock}
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
	// 100 samples in blocks of 30 on 3 engines: a round of 30+30+30,
	// then a last block of 10 on one engine.
	opts := fixedSize(100, 1)
	opts.CheckEvery = 30
	c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Est.N() != 100 {
		t.Fatalf("N = %d", c.Est.N())
	}
	one, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaigns(t, "3 engines vs 1", c, one)
}

func TestRunAdaptiveStops(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.DefaultAdaptive(0.01)
	opts.MinSamples = 500
	opts.CheckEvery = 250
	opts.MaxSamples = 20000
	c, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts)
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
	cl, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), loose)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), tight)
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
	if _, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), bad); err == nil {
		t.Error("epsilon 0 accepted")
	}
	bad = montecarlo.DefaultAdaptive(0.01)
	bad.Risk = 2
	if _, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), bad); err == nil {
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
	for i, eng := range engines {
		if eng.Golden() != ev.Engine.Golden() {
			t.Errorf("clone %d has its own golden run, not the parent's", i)
		}
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
	c, err := runAdaptive(context.Background(), ev, sampler, opts)
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

// answerPrint is everything of an answer that must not depend on the
// number of engines: pin's fields, the class counts and the per-t
// tallies.
type answerPrint struct {
	pinnedResult
	Classes       [3]int
	TDraws, THits []int
}

func printOf(c *montecarlo.Campaign) answerPrint {
	return answerPrint{pin(c), c.ClassCounts, c.TDraws, c.THits}
}

// TestAnswersIndependentOfEngineCount: blocks are seeded by their
// index and commit in index order, so 1, 2 and 3 engines give
// bit-identical answers: fixed-size and adaptive, on the random,
// importance and stratified samplers, with and without AdaptProposal
// (which runs one block per round). The adaptive cases stop at a block
// that is not the last of its round on some pool size, so the rest of
// that round is discarded.
func TestAnswersIndependentOfEngineCount(t *testing.T) {
	gate := concentratedEvaluation(t)
	gateEngines, err := gate.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	reg := evaluation(t)
	regEngines, err := reg.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	importance := varianceImportance(t, gate)
	stratified := varianceStratified(t, gate)
	fixed := func(n int) montecarlo.AdaptiveOptions {
		return montecarlo.AdaptiveOptions{Seed: 5, MinSamples: n, MaxSamples: n, CheckEvery: 700}
	}
	adaptive := func(eps float64) montecarlo.AdaptiveOptions {
		return montecarlo.AdaptiveOptions{
			Seed: 6, Epsilon: eps, Risk: 1 / (stats.Z95 * stats.Z95),
			MinSamples: 600, MaxSamples: 40000, CheckEvery: 300,
		}
	}
	adapt := func(o montecarlo.AdaptiveOptions) montecarlo.AdaptiveOptions {
		o.AdaptProposal = true
		return o
	}
	register := func(o montecarlo.AdaptiveOptions) montecarlo.AdaptiveOptions {
		o.Mode = montecarlo.RegisterAttack
		return o
	}
	discarded := map[int]bool{}
	for _, tc := range []struct {
		name    string
		engines []*montecarlo.Engine
		sampler sampling.Sampler
		opts    montecarlo.AdaptiveOptions
	}{
		{"fixed random gate", gateEngines, gate.RandomSampler(), fixed(3000)},
		{"fixed random register", regEngines, reg.RandomSampler(), register(fixed(2500))},
		{"fixed importance", gateEngines, importance, fixed(3000)},
		{"fixed importance adapted", gateEngines, importance, adapt(fixed(3000))},
		{"fixed stratified", gateEngines, stratified, fixed(3000)},
		{"fixed stratified adapted", gateEngines, stratified, adapt(fixed(3000))},
		{"adaptive random register", regEngines, reg.RandomSampler(), register(adaptive(6.5e-3))},
		{"adaptive importance", gateEngines, importance, adaptive(1e-3)},
		{"adaptive importance adapted", gateEngines, importance, adapt(adaptive(1e-3))},
		{"adaptive stratified", gateEngines, stratified, adaptive(1e-3)},
		{"adaptive stratified adapted", gateEngines, stratified, adapt(adaptive(1e-3))},
	} {
		var want answerPrint
		for n := 1; n <= len(tc.engines); n++ {
			c, err := montecarlo.RunAdaptiveParallel(context.Background(), tc.engines[:n], tc.sampler, tc.opts)
			if err != nil {
				t.Fatalf("%s on %d engines: %v", tc.name, n, err)
			}
			got := printOf(c)
			if n == 1 {
				want = got
				if got.Successes == 0 {
					t.Fatalf("%s: no success in %d samples: not the intended workload", tc.name, got.N)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %d engines:\n got %+v\nwant %+v (1 engine)", tc.name, n, got, want)
			}
			if blocks := got.N / tc.opts.CheckEvery; !tc.opts.AdaptProposal && got.N < tc.opts.MaxSamples && blocks%n != 0 {
				discarded[n] = true
			}
		}
	}
	if !discarded[2] || !discarded[3] {
		t.Errorf("no adaptive answer stopped inside a round on 2 and on 3 engines: %v", discarded)
	}
}
