package montecarlo_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/montecarlo"
)

// concentratedEvaluation aims the whole candidate set at the
// neighbourhood of the MPU's critical decision gate, so a large share
// of strikes flips the responding registers and the batched resume's
// divergence fallback is exercised heavily (including successful
// attacks, which can only be produced by diverged lanes).
func concentratedEvaluation(t *testing.T) *core.Evaluation {
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
// samples whose lanes diverge behaviorally and fall back to the scalar
// resume.
func TestBatchRunParity(t *testing.T) {
	ev := concentratedEvaluation(t)
	srng := rand.New(rand.NewSource(99))
	samples := make([]fault.Sample, 1500)
	for i := range samples {
		samples[i] = ev.Attack.SampleNominal(srng)
	}

	rngScalar := rand.New(rand.NewSource(17))
	scalar := make([]montecarlo.RunResult, len(samples))
	for i, s := range samples {
		scalar[i] = ev.Engine.RunOnce(rngScalar, s, montecarlo.GateAttack)
	}
	rngBatch := rand.New(rand.NewSource(17))
	batched := ev.Engine.RunBatch(rngBatch, samples, montecarlo.GateAttack)

	rtl, diverged := 0, 0
	for i := range samples {
		sr, br := scalar[i], batched[i]
		if sr.Success != br.Success || sr.Class != br.Class || sr.Path != br.Path ||
			sr.ResumeCycles != br.ResumeCycles {
			t.Fatalf("sample %d (%+v): scalar %+v, batched %+v", i, samples[i], sr, br)
		}
		if len(sr.Flipped) != len(br.Flipped) {
			t.Fatalf("sample %d: flipped %v vs %v", i, sr.Flipped, br.Flipped)
		}
		for j := range sr.Flipped {
			if sr.Flipped[j] != br.Flipped[j] {
				t.Fatalf("sample %d: flipped %v vs %v", i, sr.Flipped, br.Flipped)
			}
		}
		if sr.Path == montecarlo.PathRTL {
			rtl++
			if sr.Success {
				diverged++
			}
		}
	}
	// The contract is only meaningful if the batch actually carried RTL
	// resumes, and successful RTL outcomes prove the divergence
	// fallback ran (a lane on the golden trajectory always fails).
	if rtl == 0 {
		t.Fatal("no PathRTL samples — the batched resume was never exercised")
	}
	if diverged == 0 {
		t.Fatal("no successful RTL samples — the divergence fallback was never exercised")
	}
	t.Logf("%d RTL resumes, %d successful (diverged) lanes", rtl, diverged)
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
