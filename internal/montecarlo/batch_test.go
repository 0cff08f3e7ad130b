package montecarlo_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
)

// concentratedEvaluation aims the whole candidate set at the
// neighbourhood of the MPU's critical decision gate, so a large share
// of strikes flips the responding registers and the grouped resume of
// diverged lanes is exercised heavily (including successful attacks,
// which can only be produced by diverged lanes).
func concentratedEvaluation(t testing.TB) *core.Evaluation {
	t.Helper()
	fw := framework(t)
	prog, err := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	if err != nil {
		t.Fatal(err)
	}
	cands := fault.ConcentratedCenters(fw.Place, fw.CandidateBlock(1), fw.SecurityTarget(), 0.02)
	attack, err := fault.NewAttack("conc", 50, fault.DefaultRadiation(), cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluationAttack(prog, attack)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// compareCampaigns asserts two campaigns are bit-identical across every
// aggregate the scalar/batched equivalence tests check.
func compareCampaigns(t *testing.T, label string, got, want *montecarlo.Campaign) {
	t.Helper()
	if got.Est.Estimate() != want.Est.Estimate() {
		t.Errorf("%s: SSF %g != %g", label, got.Est.Estimate(), want.Est.Estimate())
	}
	if got.Successes != want.Successes {
		t.Errorf("%s: successes %d != %d", label, got.Successes, want.Successes)
	}
	if got.ClassCounts != want.ClassCounts {
		t.Errorf("%s: class counts %v != %v", label, got.ClassCounts, want.ClassCounts)
	}
	if got.PathCounts != want.PathCounts {
		t.Errorf("%s: path counts %v != %v", label, got.PathCounts, want.PathCounts)
	}
	if got.RTLCycles != want.RTLCycles {
		t.Errorf("%s: RTL cycles %d != %d", label, got.RTLCycles, want.RTLCycles)
	}
	if len(got.Convergence) != len(want.Convergence) {
		t.Fatalf("%s: convergence length %d != %d", label, len(got.Convergence), len(want.Convergence))
	}
	for i := range want.Convergence {
		if got.Convergence[i] != want.Convergence[i] {
			t.Fatalf("%s: convergence[%d] %g != %g", label, i, got.Convergence[i], want.Convergence[i])
		}
	}
	for r, v := range want.RegContribution {
		if got.RegContribution[r] != v {
			t.Errorf("%s: reg %d contribution %g != %g", label, r, got.RegContribution[r], v)
		}
	}
	if len(got.RegContribution) != len(want.RegContribution) {
		t.Errorf("%s: reg contributions %d != %d", label, len(got.RegContribution), len(want.RegContribution))
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Errorf("%s: patterns %d != %d", label, len(got.Patterns), len(want.Patterns))
	}
}

// TestBatchRunParity is the per-sample contract: RunBatch must return
// exactly what the same sequence of RunOnce calls returns — outcome,
// classification, flipped set, and the RTL cycle count — including for
// samples whose lanes diverge behaviorally and finish in grouped
// resumes. The gate case concentrates strikes on the decision logic;
// the register case is the default evaluation, whose RTL draws mostly
// diverge, in classes that share lanes and split again later.
func TestBatchRunParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ev      func(testing.TB) *core.Evaluation
		mode    montecarlo.Mode
		samples int
		// grouped requires a grouped resume of two or more lanes and a
		// group started by a later split.
		grouped bool
	}{
		{"gate-concentrated", concentratedEvaluation, montecarlo.GateAttack, 1500, false},
		{"register-default", evaluation, montecarlo.RegisterAttack, 5000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := tc.ev(t)
			srng := rand.New(rand.NewSource(99))
			samples := make([]fault.Sample, tc.samples)
			for i := range samples {
				samples[i] = ev.Attack.SampleNominal(srng)
			}

			rngScalar := rand.New(rand.NewSource(17))
			scalar := make([]montecarlo.RunResult, len(samples))
			for i, s := range samples {
				scalar[i] = ev.Engine.RunOnce(rngScalar, s, tc.mode)
			}
			rngBatch := rand.New(rand.NewSource(17))
			batched := ev.Engine.RunBatch(rngBatch, samples, tc.mode)
			groups, splits, lanes, _ := ev.Engine.GroupCounts()

			rtl, diverged := 0, 0
			for i := range samples {
				sr, br := scalar[i], batched[i]
				if sr.Success != br.Success || sr.Class != br.Class || sr.Path != br.Path ||
					sr.ResumeCycles != br.ResumeCycles {
					t.Fatalf("sample %d (%+v): scalar %+v, batched %+v", i, samples[i], sr, br)
				}
				if !slices.Equal(sr.Flipped, br.Flipped) {
					t.Fatalf("sample %d: flipped %v vs %v", i, sr.Flipped, br.Flipped)
				}
				if sr.Path == montecarlo.PathRTL {
					rtl++
					if sr.Success {
						diverged++
					}
				}
			}
			// The contract is only meaningful if the batch actually
			// carried RTL resumes, and successful RTL outcomes prove
			// diverged lanes were finished (a lane on the golden
			// trajectory always fails).
			if rtl == 0 {
				t.Fatal("no PathRTL samples — the batched resume was never exercised")
			}
			if diverged == 0 {
				t.Fatal("no successful RTL samples — no diverged lane was exercised")
			}
			t.Logf("%d RTL resumes, %d successful (diverged) lanes; %d lanes in %d groups, %d from later splits",
				rtl, diverged, lanes, groups, splits)
			if !tc.grouped {
				return
			}
			// Every ejected lane starts in exactly one class group, so
			// more lanes than class groups means some group carried two
			// or more.
			if lanes <= groups-splits {
				t.Errorf("%d lanes in %d class groups: no group carried two lanes", lanes, groups-splits)
			}
			if splits == 0 {
				t.Error("no group split at a later response")
			}
		})
	}
}

// TestGroupedResumeFullClass sends 64 copies of one diverging register
// attack through a single batch: every lane diverges at the same cycle
// to the same response, so the class has 64 lanes, one more than a
// group can carry beside its shadow lane. It must run as groups of 63
// and 1, and every copy must match the scalar run.
func TestGroupedResumeFullClass(t *testing.T) {
	ev := evaluation(t)
	srng := rand.New(rand.NewSource(99))
	rng := rand.New(rand.NewSource(1))
	var sample fault.Sample
	found := false
	for i := 0; i < 10000 && !found; i++ {
		sample = ev.Attack.SampleNominal(srng)
		_, _, before, _ := ev.Engine.GroupCounts()
		ev.Engine.RunBatch(rng, []fault.Sample{sample}, montecarlo.RegisterAttack)
		_, _, after, _ := ev.Engine.GroupCounts()
		found = after > before
	}
	if !found {
		t.Fatal("no register attack in 10000 draws diverged into a grouped resume")
	}
	want := ev.Engine.RunOnce(rng, sample, montecarlo.RegisterAttack)

	samples := make([]fault.Sample, 64)
	for i := range samples {
		samples[i] = sample
	}
	g0, s0, l0, _ := ev.Engine.GroupCounts()
	got := ev.Engine.RunBatch(rng, samples, montecarlo.RegisterAttack)
	g1, s1, l1, _ := ev.Engine.GroupCounts()
	if g1-g0 != 2 || s1-s0 != 0 || l1-l0 != 64 {
		t.Errorf("64-lane class ran as %d groups (%d splits) over %d lanes, want 2 groups, 0 splits, 64 lanes",
			g1-g0, s1-s0, l1-l0)
	}
	for i, r := range got {
		if r.Success != want.Success || r.Path != want.Path || r.Class != want.Class ||
			r.ResumeCycles != want.ResumeCycles || !slices.Equal(r.Flipped, want.Flipped) {
			t.Fatalf("copy %d: batched %+v, scalar %+v", i, r, want)
		}
	}
}

// TestGroupedResumeConvergenceCut checks that the convergence cut fires
// inside grouped resumes, not only in the lane-batched resume. With the
// classification shortcuts off every unmasked strike resumes RTL, and
// some lanes diverge at a response that changes no state (a DMA read,
// or a store of the value memory already holds, denied without a
// violation) and then return to the golden state. Such a lane must
// retire early: fewer resume cycles than with the cut disabled, and
// exactly as many as the scalar resume.
func TestGroupedResumeConvergenceCut(t *testing.T) {
	evCut, evFull := evaluation(t), evaluation(t)
	for _, ev := range []*core.Evaluation{evCut, evFull} {
		ev.Engine.Char = nil
		ev.Engine.Analytical = nil
	}
	evFull.Engine.DisableConvergenceCut = true
	rng := rand.New(rand.NewSource(1))
	srng := rand.New(rand.NewSource(99))
	found := 0
	for i := 0; i < 4000; i++ {
		s := evCut.Attack.SampleNominal(srng)
		_, _, _, before := evCut.Engine.GroupCounts()
		got := evCut.Engine.RunBatch(rng, []fault.Sample{s}, montecarlo.GateAttack)[0]
		if _, _, _, after := evCut.Engine.GroupCounts(); after == before {
			continue
		}
		found++
		scalar := evCut.Engine.RunOnce(rng, s, montecarlo.GateAttack)
		full := evFull.Engine.RunBatch(rng, []fault.Sample{s}, montecarlo.GateAttack)[0]
		if got.Success || scalar.Success || full.Success {
			t.Fatalf("sample %+v: a converged lane succeeded (grouped %v, scalar %v, no cut %v)",
				s, got.Success, scalar.Success, full.Success)
		}
		if got.ResumeCycles != scalar.ResumeCycles {
			t.Errorf("sample %+v: grouped cut after %d cycles, scalar after %d", s, got.ResumeCycles, scalar.ResumeCycles)
		}
		if got.ResumeCycles >= full.ResumeCycles {
			t.Errorf("sample %+v: grouped cut after %d cycles, not before the uncut %d", s, got.ResumeCycles, full.ResumeCycles)
		}
	}
	if found == 0 {
		t.Fatal("no grouped lane retired through the convergence cut")
	}
	t.Logf("%d grouped lanes retired through the cut", found)
}

// TestBatchCampaignEquivalence is the acceptance criterion: fixed-seed
// campaigns over the batched and scalar paths must be bit-identical —
// SSF, per-sample convergence trace, success/class/path counts,
// register attribution, patterns, and even the total RTL cycle count.
func TestBatchCampaignEquivalence(t *testing.T) {
	ev := evaluation(t)
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{
		Samples: 3000, Seed: 21,
		TrackConvergence: true, TrackPatterns: true,
	}
	scalar, err := ev.Engine.RunCampaign(context.Background(), sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Batch = true
	opts.BatchWindow = 700 // not a divisor of Samples: exercises the partial final window
	batched, err := ev.Engine.RunCampaign(context.Background(), sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaigns(t, "batched", batched, scalar)
	if batched.PathCounts[montecarlo.PathRTL] == 0 {
		t.Error("campaign exercised no RTL resumes — equivalence is vacuous")
	}
}

// TestBatchCampaignForcedDivergence repeats the campaign equivalence
// check under the concentrated attack, where diverged lanes (including
// successful attacks) dominate the RTL traffic.
func TestBatchCampaignForcedDivergence(t *testing.T) {
	ev := concentratedEvaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 2000, Seed: 4, TrackConvergence: true}
	scalar, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Batch = true
	batched, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Est.Estimate() != scalar.Est.Estimate() || batched.Successes != scalar.Successes ||
		batched.ClassCounts != scalar.ClassCounts || batched.PathCounts != scalar.PathCounts ||
		batched.RTLCycles != scalar.RTLCycles {
		t.Errorf("diverged-heavy campaign mismatch: batched SSF %g/%d/%d cycles, scalar %g/%d/%d cycles",
			batched.Est.Estimate(), batched.Successes, batched.RTLCycles,
			scalar.Est.Estimate(), scalar.Successes, scalar.RTLCycles)
	}
	if scalar.Successes == 0 {
		t.Error("concentrated campaign produced no successes — divergence not forced")
	}
	for i := range scalar.Convergence {
		if batched.Convergence[i] != scalar.Convergence[i] {
			t.Fatalf("convergence[%d] %g != scalar %g", i, batched.Convergence[i], scalar.Convergence[i])
		}
	}
}

// TestBatchRegisterAttackEquivalence checks the direct-SEU mode, whose
// injection bypasses the timed gate simulation entirely.
func TestBatchRegisterAttackEquivalence(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 1500, Seed: 9, Mode: montecarlo.RegisterAttack}
	scalar, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Batch = true
	batched, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Est.Estimate() != scalar.Est.Estimate() || batched.Successes != scalar.Successes ||
		batched.ClassCounts != scalar.ClassCounts || batched.PathCounts != scalar.PathCounts ||
		batched.RTLCycles != scalar.RTLCycles {
		t.Errorf("register-attack campaign mismatch: batched %g/%d, scalar %g/%d",
			batched.Est.Estimate(), batched.Successes, scalar.Est.Estimate(), scalar.Successes)
	}
}

// TestBatchHardenedRegisterSpotsStayIntact runs a hardened register
// campaign twice through RunBatch on one engine. Hardening filters the
// struck registers, which the spot cache hands out as shared sets, so
// filtering in place would corrupt later lookups of the same spot.
// Every sample of both runs must equal RunOnce on an engine whose spot
// cache is rebuilt before each sample.
func TestBatchHardenedRegisterSpotsStayIntact(t *testing.T) {
	ev, ref := evaluation(t), evaluation(t)
	hardened := map[netlist.NodeID]float64{}
	for i, r := range ev.Engine.SoC.MPU.Netlist.Regs() {
		if i%3 != 0 {
			hardened[r] = 4
		}
	}
	ev.Engine.Hardened, ref.Engine.Hardened = hardened, hardened
	srng := rand.New(rand.NewSource(31))
	samples := make([]fault.Sample, 3000)
	for i := range samples {
		samples[i] = ev.Attack.SampleNominal(srng)
	}
	rng := rand.New(rand.NewSource(5))
	want := make([]montecarlo.RunResult, len(samples))
	for i, s := range samples {
		ref.Engine.DropSpotCache()
		want[i] = ref.Engine.RunOnce(rng, s, montecarlo.RegisterAttack)
	}
	for run := 0; run < 2; run++ {
		got := ev.Engine.RunBatch(rand.New(rand.NewSource(5)), samples, montecarlo.RegisterAttack)
		flipped := 0
		for i := range samples {
			if w, g := want[i], got[i]; w.Success != g.Success || w.Class != g.Class || w.Path != g.Path ||
				w.ResumeCycles != g.ResumeCycles || !slices.Equal(w.Flipped, g.Flipped) {
				t.Fatalf("run %d sample %d: batched %+v, RunOnce %+v", run, i, g, w)
			}
			if len(want[i].Flipped) > 0 {
				flipped++
			}
		}
		if flipped == 0 {
			t.Fatal("no sample flipped a register")
		}
	}
}

// TestBatchMultiCycleFallsBackToScalar: multi-cycle disturbances cannot
// use the cached-window fast path; the batched campaign must route them
// through the scalar RunOnce and still match exactly.
func TestBatchMultiCycleFallsBackToScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fw := framework(t)
	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	tech := fault.DefaultRadiation()
	tech.ImpactCycles = 3
	attack, err := fault.NewAttack("multi", 50, tech, fw.CandidateBlock(0.125), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluationAttack(prog, attack)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{Samples: 1200, Seed: 5}
	scalar, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Batch = true
	batched, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Est.Estimate() != scalar.Est.Estimate() || batched.Successes != scalar.Successes ||
		batched.ClassCounts != scalar.ClassCounts || batched.PathCounts != scalar.PathCounts ||
		batched.RTLCycles != scalar.RTLCycles {
		t.Errorf("multi-cycle campaign mismatch: batched %g/%d, scalar %g/%d",
			batched.Est.Estimate(), batched.Successes, scalar.Est.Estimate(), scalar.Successes)
	}
}

// TestBatchParallelAndAdaptive: the orchestration layers must forward
// the batch option and stay bit-identical to their scalar selves.
func TestBatchParallelAndAdaptive(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	popts := montecarlo.CampaignOptions{Samples: 3000, Seed: 11}
	scalarP, err := montecarlo.RunCampaignParallel(context.Background(), engines, ev.RandomSampler(), popts)
	if err != nil {
		t.Fatal(err)
	}
	popts.Batch = true
	batchedP, err := montecarlo.RunCampaignParallel(context.Background(), engines, ev.RandomSampler(), popts)
	if err != nil {
		t.Fatal(err)
	}
	if batchedP.Est.Estimate() != scalarP.Est.Estimate() || batchedP.Successes != scalarP.Successes ||
		batchedP.ClassCounts != scalarP.ClassCounts || batchedP.PathCounts != scalarP.PathCounts {
		t.Errorf("parallel campaign mismatch: batched %g/%d, scalar %g/%d",
			batchedP.Est.Estimate(), batchedP.Successes, scalarP.Est.Estimate(), scalarP.Successes)
	}

	aopts := montecarlo.DefaultAdaptive(0.02)
	aopts.Seed = 13
	aopts.MaxSamples = 4000
	scalarA, err := ev.Engine.RunAdaptive(context.Background(), ev.RandomSampler(), aopts)
	if err != nil {
		t.Fatal(err)
	}
	aopts.Batch = true
	batchedA, err := ev.Engine.RunAdaptive(context.Background(), ev.RandomSampler(), aopts)
	if err != nil {
		t.Fatal(err)
	}
	if batchedA.Est.Estimate() != scalarA.Est.Estimate() || batchedA.Est.N() != scalarA.Est.N() ||
		batchedA.Successes != scalarA.Successes {
		t.Errorf("adaptive campaign mismatch: batched %g over %d, scalar %g over %d",
			batchedA.Est.Estimate(), batchedA.Est.N(), scalarA.Est.Estimate(), scalarA.Est.N())
	}
}
