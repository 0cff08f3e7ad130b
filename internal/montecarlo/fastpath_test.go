package montecarlo_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/montecarlo"
)

// referenceEvaluation builds an evaluation with every per-run fast path
// that can be switched off disabled: dense full-netlist injection
// sweep, no convergence-cut resume. Its restores inside the attack
// window still read the window snapshots, which TestWindowSnapshots
// holds to stepping from the golden checkpoints.
func referenceEvaluation(t *testing.T) *core.Evaluation {
	t.Helper()
	ev := evaluation(t)
	ev.Engine.Timing.SetReferenceSweep(true)
	ev.Engine.DisableConvergenceCut()
	return ev
}

// TestFastPathsRunOnceParity compares individual runs between the fast
// and the reference configuration: everything except ResumeCycles must
// match exactly, and the convergence cut may only shorten resumes.
func TestFastPathsRunOnceParity(t *testing.T) {
	evFast := evaluation(t)
	evRef := referenceEvaluation(t)
	rngF := rand.New(rand.NewSource(17))
	rngR := rand.New(rand.NewSource(17))
	srng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		s := evFast.Attack.SampleNominal(srng)
		rf := evFast.Engine.RunOnce(rngF, s, montecarlo.GateAttack)
		rr := evRef.Engine.RunOnce(rngR, s, montecarlo.GateAttack)
		if rf.Success != rr.Success || rf.Class != rr.Class || rf.Path != rr.Path {
			t.Fatalf("sample %d (%+v): fast %+v, reference %+v", i, s, rf, rr)
		}
		if len(rf.Flipped) != len(rr.Flipped) {
			t.Fatalf("sample %d: flipped %v vs %v", i, rf.Flipped, rr.Flipped)
		}
		for j := range rf.Flipped {
			if rf.Flipped[j] != rr.Flipped[j] {
				t.Fatalf("sample %d: flipped %v vs %v", i, rf.Flipped, rr.Flipped)
			}
		}
		if rf.ResumeCycles > rr.ResumeCycles {
			t.Fatalf("sample %d: fast resumed %d cycles, reference %d",
				i, rf.ResumeCycles, rr.ResumeCycles)
		}
	}
}

// TestFastPathsCampaignEquivalence is the acceptance-criterion check:
// a fixed-seed RunCampaign must produce the SSF, Successes, class and
// path counts of the scalar reference loop on the reference
// configuration, with every fast path off; only the simulated RTL-cycle
// total may change, and it must shrink — a convergence cut that never
// fires would leave it equal.
func TestFastPathsCampaignEquivalence(t *testing.T) {
	evFast := evaluation(t)
	evRef := referenceEvaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 1500, Seed: 21}
	fast, err := evFast.Engine.RunCampaign(context.Background(), evFast.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := evRef.Engine.RunCampaignScalar(context.Background(), evRef.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Est.Estimate() != ref.Est.Estimate() {
		t.Errorf("SSF %g != reference %g", fast.Est.Estimate(), ref.Est.Estimate())
	}
	if fast.Successes != ref.Successes {
		t.Errorf("successes %d != reference %d", fast.Successes, ref.Successes)
	}
	if fast.ClassCounts != ref.ClassCounts {
		t.Errorf("class counts %v != reference %v", fast.ClassCounts, ref.ClassCounts)
	}
	if fast.PathCounts != ref.PathCounts {
		t.Errorf("path counts %v != reference %v", fast.PathCounts, ref.PathCounts)
	}
	if len(fast.RegContribution) != len(ref.RegContribution) {
		t.Errorf("reg contributions %d != reference %d",
			len(fast.RegContribution), len(ref.RegContribution))
	}
	for r, v := range ref.RegContribution {
		if fast.RegContribution[r] != v {
			t.Errorf("reg %d contribution %g != reference %g", r, fast.RegContribution[r], v)
		}
	}
	if fast.RTLCycles >= ref.RTLCycles {
		t.Errorf("fast paths simulated %d RTL cycles, not fewer than the reference's %d",
			fast.RTLCycles, ref.RTLCycles)
	}
	t.Logf("RTL cycles: fast %d, reference %d", fast.RTLCycles, ref.RTLCycles)
}

// TestFastPathsMultiCycleEquivalence repeats the campaign parity check
// with a multi-cycle disturbance, which always resolves through the
// RTL-resume path and therefore exercises the convergence cut heavily.
func TestFastPathsMultiCycleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fw := framework(t)
	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	tech := fault.DefaultRadiation()
	tech.ImpactCycles = 3
	mk := func() *core.Evaluation {
		attack, err := fault.NewAttack("multi", 50, tech, fw.CandidateBlock(0.125), nil)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := fw.NewEvaluationAttack(prog, attack)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	evFast := mk()
	evRef := mk()
	evRef.Engine.Timing.SetReferenceSweep(true)
	evRef.Engine.DisableConvergenceCut()
	opts := montecarlo.CampaignOptions{Samples: 1200, Seed: 5}
	fast, err := evFast.Engine.RunCampaign(context.Background(), evFast.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := evRef.Engine.RunCampaignScalar(context.Background(), evRef.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Est.Estimate() != ref.Est.Estimate() || fast.Successes != ref.Successes ||
		fast.ClassCounts != ref.ClassCounts || fast.PathCounts != ref.PathCounts {
		t.Errorf("multi-cycle campaign diverged: fast SSF %g/%d, reference %g/%d",
			fast.Est.Estimate(), fast.Successes, ref.Est.Estimate(), ref.Successes)
	}
	if fast.RTLCycles > ref.RTLCycles {
		t.Errorf("fast RTL cycles %d > reference %d", fast.RTLCycles, ref.RTLCycles)
	}
}
