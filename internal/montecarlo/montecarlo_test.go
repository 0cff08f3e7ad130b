package montecarlo_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/sampling"
	"repro/internal/soc"
)

var (
	fwOnce sync.Once
	fw     *core.Framework
	fwErr  error
)

// testOptions configures the framework the package's tests share: the
// defaults with a shorter pre-characterization.
func testOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Precharac.MaxDepth = 51
	opts.Precharac.TraceCycles = 768
	opts.Precharac.LifetimeCap = 120
	opts.Precharac.Probes = 1
	return opts
}

func framework(t testing.TB) *core.Framework {
	t.Helper()
	fwOnce.Do(func() { fw, fwErr = core.Build(testOptions()) })
	if fwErr != nil {
		t.Fatal(fwErr)
	}
	return fw
}

func evaluation(t testing.TB) *core.Evaluation {
	t.Helper()
	ev, err := framework(t).NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// runAdaptive runs an answer through the round loop on the
// evaluation's own engine.
func runAdaptive(ctx context.Context, ev *core.Evaluation, sampler sampling.Sampler, opts montecarlo.AdaptiveOptions) (*montecarlo.Campaign, error) {
	return montecarlo.RunAdaptiveParallel(ctx, []*montecarlo.Engine{ev.Engine}, sampler, opts)
}

func TestGoldenRunArtifacts(t *testing.T) {
	ev := evaluation(t)
	g := ev.Golden
	if g.TargetCycle <= g.SetupEnd || g.FinalCycle < g.TargetCycle {
		t.Fatalf("golden cycles inconsistent: %+v", g)
	}
	if g.MarkedIssue != g.TargetCycle-1 {
		t.Errorf("marked issue %d, target %d", g.MarkedIssue, g.TargetCycle)
	}
	if len(g.Checkpoints) < 2 {
		t.Error("too few checkpoints")
	}
	for i, cp := range g.Checkpoints {
		if cp.Cycle != i*g.Interval {
			t.Fatalf("checkpoint %d at cycle %d, want %d", i, cp.Cycle, i*g.Interval)
		}
	}
	if len(g.Accesses) == 0 {
		t.Error("golden access log empty")
	}
	if len(g.Policy) != 4 {
		t.Errorf("policy regions = %d", len(g.Policy))
	}
}

func TestCampaignBeforeGoldenFails(t *testing.T) {
	fw := framework(t)
	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	attack, err := fw.NewAttack(core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	s, err := soc.WithMPU(fw.Opts.SoC, prog, fw.MPU)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := montecarlo.New(s, attack, fw.Place, fw.Opts.Delay, fw.Char, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunCampaign(context.Background(), &fakeSampler{attack}, montecarlo.CampaignOptions{Samples: 1}); err == nil {
		t.Error("campaign before golden run accepted")
	}
	if _, err := eng.RunGolden(0); err == nil {
		t.Error("zero checkpoint interval accepted")
	}
}

// TestModelCheckGuard pins the construction-time static verification:
// a design with an error-severity defect is rejected by New, and
// precharac applies the same gate.
func TestModelCheckGuard(t *testing.T) {
	fw := framework(t)
	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	attack, err := fw.NewAttack(core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	// A private MPU copy (the shared framework one must stay clean)
	// with two registers sharing a name: NL009, error severity.
	mpu, err := soc.BuildMPU(soc.DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	regs := mpu.Netlist.Regs()
	if len(regs) < 2 {
		t.Fatal("MPU has fewer than 2 registers")
	}
	mpu.Netlist.Node(regs[1]).Name = mpu.Netlist.Node(regs[0]).Name
	s, err := soc.WithMPU(fw.Opts.SoC, prog, mpu)
	if err != nil {
		t.Fatal(err)
	}
	place := placement.Place(mpu.Netlist)

	if _, err := montecarlo.New(s, attack, place, fw.Opts.Delay, nil, nil); err == nil {
		t.Error("New accepted a design with an error-severity finding")
	}
	pcOpts := fw.Opts.Precharac
	if _, err := precharac.Characterize(s, pcOpts); err == nil {
		t.Error("Characterize accepted a design with an error-severity finding")
	}
}

type fakeSampler struct{ a *fault.Attack }

func (f *fakeSampler) Name() string { return "fake" }
func (f *fakeSampler) Draw(rng *rand.Rand) (fault.Sample, float64) {
	return f.a.SampleNominal(rng), 1
}
func (f *fakeSampler) TimingProbs() []float64 { return nil }

func TestRunOnceDeterministic(t *testing.T) {
	ev := evaluation(t)
	rng := rand.New(rand.NewSource(1))
	sample := ev.Attack.SampleNominal(rng)
	r1 := ev.Engine.RunOnce(rand.New(rand.NewSource(2)), sample, montecarlo.GateAttack)
	r2 := ev.Engine.RunOnce(rand.New(rand.NewSource(2)), sample, montecarlo.GateAttack)
	if r1.Success != r2.Success || r1.Class != r2.Class || r1.Path != r2.Path {
		t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
	}
	if len(r1.Flipped) != len(r2.Flipped) {
		t.Fatal("flip sets differ")
	}
}

func TestCampaignAccounting(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 400, Seed: 7, TrackConvergence: true, TrackPatterns: true}
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	classTotal := c.ClassCounts[0] + c.ClassCounts[1] + c.ClassCounts[2]
	pathTotal := c.PathCounts[0] + c.PathCounts[1] + c.PathCounts[2] + c.PathCounts[3]
	if classTotal != 400 || pathTotal != 400 {
		t.Errorf("counts: classes %d paths %d", classTotal, pathTotal)
	}
	if len(c.Convergence) != 400 {
		t.Errorf("convergence length %d", len(c.Convergence))
	}
	if c.SSF() < 0 || c.SSF() > 1 {
		t.Errorf("SSF = %v", c.SSF())
	}
	if c.Est.N() != 400 {
		t.Errorf("estimator N = %d", c.Est.N())
	}
	// Masked class count equals masked path count (1:1 mapping).
	if c.ClassCounts[montecarlo.Masked] != c.PathCounts[montecarlo.PathMasked] {
		t.Error("masked class/path mismatch")
	}
	// Non-masked runs with tracking produce pattern tallies.
	nonMasked := 400 - c.ClassCounts[montecarlo.Masked]
	tallied := 0
	for _, n := range c.PatternCounts {
		tallied += n
	}
	if tallied != nonMasked {
		t.Errorf("pattern tallies %d, non-masked %d", tallied, nonMasked)
	}
}

func TestCampaignReproducible(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 300, Seed: 9}
	c1, _ := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	c2, _ := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if c1.SSF() != c2.SSF() || c1.Successes != c2.Successes || c1.ClassCounts != c2.ClassCounts {
		t.Fatal("same seed produced different campaigns")
	}
}

// TestAnalyticalMatchesRTL validates the paper's claim that evaluating
// memory-type-only errors analytically does not compromise accuracy:
// for every analytically-decided run, an engine without the analytical
// shortcut (full RTL resume) must reach the same verdict.
func TestAnalyticalMatchesRTL(t *testing.T) {
	fw := framework(t)
	ev := evaluation(t)

	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	s2, err := soc.WithMPU(fw.Opts.SoC, prog, fw.MPU)
	if err != nil {
		t.Fatal(err)
	}
	rtlOnly, err := montecarlo.New(s2, ev.Attack, fw.Place, fw.Opts.Delay, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtlOnly.RunGolden(fw.Opts.CheckpointInterval); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	dummy := rand.New(rand.NewSource(0))
	checked := 0
	for i := 0; i < 4000 && checked < 60; i++ {
		sample := ev.Attack.SampleNominal(rng)
		rA := ev.Engine.RunOnce(dummy, sample, montecarlo.GateAttack)
		if rA.Path != montecarlo.PathAnalytical {
			continue
		}
		checked++
		rB := rtlOnly.RunOnce(dummy, sample, montecarlo.GateAttack)
		if rB.Path != montecarlo.PathRTL {
			t.Fatalf("reference engine did not use RTL (%v)", rB.Path)
		}
		if rA.Success != rB.Success {
			t.Fatalf("analytical %v vs RTL %v for sample %+v (flips %v)",
				rA.Success, rB.Success, sample, rA.Flipped)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d analytical runs observed; test inconclusive", checked)
	}
	t.Logf("verified %d analytical outcomes against full RTL", checked)
}

// TestPrunedRunsWouldFail validates lifetime pruning the same way: runs
// decided by pruning must fail under the full RTL engine.
func TestPrunedRunsWouldFail(t *testing.T) {
	fw := framework(t)
	ev := evaluation(t)
	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	s2, _ := soc.WithMPU(fw.Opts.SoC, prog, fw.MPU)
	rtlOnly, err := montecarlo.New(s2, ev.Attack, fw.Place, fw.Opts.Delay, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtlOnly.RunGolden(fw.Opts.CheckpointInterval); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	dummy := rand.New(rand.NewSource(0))
	checked := 0
	for i := 0; i < 4000 && checked < 40; i++ {
		sample := ev.Attack.SampleNominal(rng)
		rA := ev.Engine.RunOnce(dummy, sample, montecarlo.GateAttack)
		if rA.Path != montecarlo.PathPruned || len(rA.Flipped) == 0 {
			continue
		}
		checked++
		rB := rtlOnly.RunOnce(dummy, sample, montecarlo.GateAttack)
		if rB.Success {
			t.Fatalf("pruned run succeeds under RTL: sample %+v flips %v", sample, rA.Flipped)
		}
	}
	if checked < 5 {
		t.Skipf("only %d pruned runs observed", checked)
	}
}

func TestHardeningSuppressesFlips(t *testing.T) {
	ev := evaluation(t)
	// Hardening every register with an enormous factor suppresses all
	// flips: every run becomes masked.
	hardened := map[netlist.NodeID]float64{}
	for _, r := range ev.Engine.SoC.MPU.Netlist.Regs() {
		hardened[r] = 1e12
	}
	prev := ev.Engine.Hardened
	ev.Engine.Hardened = hardened
	defer func() { ev.Engine.Hardened = prev }()
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), montecarlo.CampaignOptions{Samples: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.ClassCounts[montecarlo.Masked] != 300 {
		t.Errorf("hardened-everything still latched flips: %v", c.ClassCounts)
	}
}

func TestRegisterAttackFindsCriticalRegs(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 6000, Seed: 4, Mode: montecarlo.RegisterAttack}
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Successes == 0 {
		t.Fatal("register attacks found no successes")
	}
	ranked := c.CriticalRegisters()
	if len(ranked) == 0 {
		t.Fatal("no critical registers")
	}
	sum := 0.0
	for i, cr := range ranked {
		sum += cr.Share
		if i > 0 && cr.Share > ranked[i-1].Share {
			t.Fatal("ranking not sorted")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// The known critical bits must rank at the top.
	nl := ev.Engine.SoC.MPU.Netlist
	topNames := map[string]bool{}
	for i := 0; i < 8 && i < len(ranked); i++ {
		topNames[nl.Node(ranked[i].Reg).Name] = true
	}
	if !topNames["cfg_perm1[1]"] {
		t.Errorf("cfg_perm1[1] not in top-8: %v", topNames)
	}
	n95 := montecarlo.CoverageCount(ranked, 0.95)
	frac := float64(n95) / float64(len(nl.Regs()))
	if frac > 0.15 {
		t.Errorf("95%% coverage needs %.0f%% of registers; expected concentration", frac*100)
	}
}

func TestCoverageCountEdges(t *testing.T) {
	ranked := []montecarlo.CriticalRegister{{Reg: 1, Share: 0.6}, {Reg: 2, Share: 0.3}, {Reg: 3, Share: 0.1}}
	if montecarlo.CoverageCount(ranked, 0.5) != 1 {
		t.Error("0.5 coverage")
	}
	if montecarlo.CoverageCount(ranked, 0.9) != 2 {
		t.Error("0.9 coverage")
	}
	if montecarlo.CoverageCount(ranked, 1.0) != 3 {
		t.Error("1.0 coverage")
	}
	if montecarlo.CoverageCount(nil, 0.9) != 0 {
		t.Error("empty ranking")
	}
}

func TestRankContributionsMerge(t *testing.T) {
	a := map[netlist.NodeID]float64{1: 3, 2: 1}
	b := map[netlist.NodeID]float64{2: 1, 3: 1}
	ranked := montecarlo.RankContributions(a, b)
	if len(ranked) != 3 || ranked[0].Reg != 1 {
		t.Fatalf("ranked = %+v", ranked)
	}
	if math.Abs(ranked[0].Share-0.5) > 1e-12 || math.Abs(ranked[1].Share-2.0/6) > 1e-12 {
		t.Errorf("shares = %+v", ranked)
	}
	if montecarlo.RankContributions(nil) != nil {
		t.Error("empty merge should be nil")
	}
}

func TestRankContributionsDeterministic(t *testing.T) {
	// Catastrophic-cancellation values: the float total (and through it
	// every share) differs in the last ulps depending on summation
	// order, so this fails if the fold ever follows map iteration order
	// again.
	m := map[netlist.NodeID]float64{0: 1e16, 1: 1, 2: -1e16, 3: 1e-3}
	for id := netlist.NodeID(4); id < 64; id++ {
		m[id] = 0.1 * float64(id)
	}
	base := montecarlo.RankContributions(m)
	for run := 0; run < 200; run++ {
		got := montecarlo.RankContributions(m)
		if len(got) != len(base) {
			t.Fatalf("run %d: length %d != %d", run, len(got), len(base))
		}
		for i := range got {
			if got[i].Reg != base[i].Reg || math.Float64bits(got[i].Share) != math.Float64bits(base[i].Share) {
				t.Fatalf("run %d: entry %d = %+v, want bit-identical %+v", run, i, got[i], base[i])
			}
		}
	}
}

func TestAttributeSuccessFiltersPassengers(t *testing.T) {
	ev := evaluation(t)
	groups := ev.Engine.SoC.MPU.Groups
	critical := groups["cfg_limit0"][9]
	passenger := groups["cfg_base1"][0]
	sample := fault.Sample{T: 5}
	got := ev.Engine.AttributeSuccess(sample, []netlist.NodeID{critical, passenger})
	if len(got) != 1 || got[0] != critical {
		t.Fatalf("attribution = %v, want only cfg_limit0[9]", got)
	}
	// Conjunctions keep the whole set.
	perm3 := groups["cfg_perm3"]
	limit3 := groups["cfg_limit3"]
	conj := []netlist.NodeID{perm3[2], perm3[1], limit3[9], limit3[4]}
	got = ev.Engine.AttributeSuccess(sample, conj)
	if len(got) != len(conj) {
		t.Fatalf("conjunction attribution = %v", got)
	}
	// Uncovered sets pass through.
	viol := groups["viol_r"][0]
	got = ev.Engine.AttributeSuccess(sample, []netlist.NodeID{viol})
	if len(got) != 1 || got[0] != viol {
		t.Fatal("uncovered set should pass through")
	}
}

func TestOutcomeClassAndPathStrings(t *testing.T) {
	if montecarlo.Masked.String() != "masked" || montecarlo.Mixed.String() != "both" {
		t.Error("class strings")
	}
	if montecarlo.PathAnalytical.String() != "analytical" || montecarlo.PathPruned.String() != "pruned" {
		t.Error("path strings")
	}
	if montecarlo.OutcomeClass(7).String() == "" || montecarlo.EvalPath(7).String() == "" {
		t.Error("unknown values should format")
	}
}

func TestEngineRejectsOversizedTRange(t *testing.T) {
	fw := framework(t)
	spec := core.DefaultAttackSpec()
	spec.TRange = 5000
	fwOpts := fw.Opts
	_ = fwOpts
	if _, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, spec); err == nil {
		t.Error("TRange larger than the benchmark accepted")
	}
}
