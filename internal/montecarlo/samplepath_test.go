package montecarlo_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
)

// TestClearedCharForcesRTL pins the Engine.Char contract: nil forces
// RTL for everything, also when it is cleared after New. No run may
// then be classed memory-only or decided by the analytical path or by
// pruning.
func TestClearedCharForcesRTL(t *testing.T) {
	ev := evaluation(t)
	ev.Engine.Char = nil
	ev.Engine.Analytical = nil
	srng := rand.New(rand.NewSource(5))
	rng := rand.New(rand.NewSource(6))
	rtl := 0
	for i := 0; i < 20000; i++ {
		s := ev.Attack.SampleNominal(srng)
		res := ev.Engine.RunOnce(rng, s, montecarlo.RegisterAttack)
		if res.Class == montecarlo.MemoryOnly || res.Path == montecarlo.PathPruned || res.Path == montecarlo.PathAnalytical {
			t.Fatalf("sample %d %+v: %v/%v without a characterization", i, s, res.Path, res.Class)
		}
		if res.Path == montecarlo.PathRTL {
			rtl++
		}
	}
	if rtl == 0 {
		t.Fatal("no run resumed RTL")
	}
}

// TestBatchedRegisterAnswerAllocations pins the allocation-free sample
// path of a warm batched register answer: classification, the
// analytical outcome, the window buffers and the flip arena allocate
// nothing per sample, so a 10,000-sample answer allocates far less than
// once per sample. What remains is per-chunk campaign bookkeeping and
// the attribution of successful samples.
func TestBatchedRegisterAnswerAllocations(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.AdaptiveOptions{
		Mode: montecarlo.RegisterAttack, Seed: 3, Epsilon: 1, Risk: 0.5,
		MinSamples: 10000, MaxSamples: 10000, CheckEvery: 1000,
	}
	sampler := ev.RandomSampler()
	var c *montecarlo.Campaign
	answer := func() {
		var err error
		if c, err = runAdaptive(context.Background(), ev, sampler, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2, answer)
	if c.Est.N() != 10000 || c.PathCounts[montecarlo.PathRTL] == 0 || c.PathCounts[montecarlo.PathAnalytical] == 0 {
		t.Fatalf("answer of %d samples, paths %v: not the intended workload", c.Est.N(), c.PathCounts)
	}
	if allocs > 1500 {
		t.Errorf("warm 10,000-sample batched register answer made %.0f allocations, want at most 1500", allocs)
	}
}

// TestRunBatchResultsOwnFlipped checks that RunBatch results keep their
// flip sets after later RunBatch calls and campaigns on the same
// engine: they must not share the engine's window arena.
func TestRunBatchResultsOwnFlipped(t *testing.T) {
	ev := evaluation(t)
	srng := rand.New(rand.NewSource(17))
	draw := func(n int) []fault.Sample {
		out := make([]fault.Sample, n)
		for i := range out {
			out[i] = ev.Attack.SampleNominal(srng)
		}
		return out
	}
	got := ev.Engine.RunBatch(rand.New(rand.NewSource(18)), draw(3000), montecarlo.RegisterAttack)
	want := make([][]netlist.NodeID, len(got))
	flipped := 0
	for i, r := range got {
		want[i] = slices.Clone(r.Flipped)
		if len(r.Flipped) > 0 {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("no sample flipped a register")
	}
	ev.Engine.RunBatch(rand.New(rand.NewSource(19)), draw(3000), montecarlo.RegisterAttack)
	for _, mode := range []montecarlo.Mode{montecarlo.RegisterAttack, montecarlo.GateAttack} {
		opts := montecarlo.CampaignOptions{Samples: 5000, Seed: 20, Mode: mode}
		if _, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range got {
		if !slices.Equal(r.Flipped, want[i]) {
			t.Fatalf("result %d: flip set changed to %v after later runs, was %v", i, r.Flipped, want[i])
		}
	}
}
