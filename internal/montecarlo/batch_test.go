package montecarlo_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harden"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sampling"
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

// batchEvent is a batched-resume event a parity case must produce.
type batchEvent struct {
	what string
	seen func(montecarlo.BatchCounts) bool
}

var (
	sharedGroup = batchEvent{"a group of two or more lanes", func(n montecarlo.BatchCounts) bool {
		// Every ejected lane starts in exactly one class group.
		return n.Lanes > n.Groups-n.Splits
	}}
	laterSplit = batchEvent{"a group split at a later response", func(n montecarlo.BatchCounts) bool {
		return n.Splits > 0
	}}
	dmaKept = batchEvent{"a lane kept in the batch through a divergence at a DMA read", func(n montecarlo.BatchCounts) bool {
		return n.Absorbed > 0
	}}
	cutWithheld = batchEvent{"a cut withheld while a lane's DMAViol offset was nonzero", func(n montecarlo.BatchCounts) bool {
		return n.Withheld > 0
	}}
	offsetGroup = batchEvent{"a group entered with a nonzero DMAViol offset", func(n montecarlo.BatchCounts) bool {
		return n.OffsetGroups > 0
	}}
)

// nonCandidates returns the strikeable gates that are not candidates
// of the evaluation's attack.
func nonCandidates(ev *core.Evaluation) []netlist.NodeID {
	return slices.DeleteFunc(ev.Framework.CandidateBlock(1), func(id netlist.NodeID) bool {
		return ev.Attack.CandidateIndex(id) >= 0
	})
}

// widerAttack is the default attack widened past every bound of the
// default technique (radius, jitter, pulse width) and aimed at the
// strikeable gates that are not default candidates.
func widerAttack(t testing.TB, ev *core.Evaluation) *fault.Attack {
	t.Helper()
	tech := ev.Attack.Technique
	tech.Radius, tech.RadiusJitter = 2.6, 1.2
	tech.PulseWidth, tech.PulseJitter = 320, 160
	a, err := fault.NewAttack("wider", ev.Attack.TRange, tech, nonCandidates(ev), nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// replacedAttackEvaluation is an evaluation of the default benchmark
// with the default attack replaced by widerAttack: its spot records
// must cover the wider attack's own candidates and bounds.
func replacedAttackEvaluation(t testing.TB) *core.Evaluation {
	ev := evaluation(t)
	wider, err := ev.Framework.NewEvaluationAttack(ev.Program, widerAttack(t, ev))
	if err != nil {
		t.Fatal(err)
	}
	return wider
}

// uncoveredSample draws a nominal sample and, on four of every five
// draws, takes it out of the spot records' coverage or out of the range
// of their instant-free check: a radius above Radius + RadiusJitter, a
// width above PulseWidth + PulseJitter, an instant moved by half a
// clock period either way (half of them leave [0, ClockPeriod)) or a
// center that is no candidate.
func uncoveredSample() func(*core.Evaluation, *rand.Rand) fault.Sample {
	n := 0
	var others []netlist.NodeID
	return func(ev *core.Evaluation, srng *rand.Rand) fault.Sample {
		s := ev.Attack.SampleNominal(srng)
		tech := ev.Attack.Technique
		switch n++; n % 5 {
		case 0:
			s.Radius = tech.Radius + tech.RadiusJitter + 2*srng.Float64()
		case 1:
			s.Width = tech.PulseWidth + tech.PulseJitter + tech.PulseWidth*srng.Float64()
		case 2:
			s.Time += tech.ClockPeriod / 2
			if srng.Intn(2) == 0 {
				s.Time -= tech.ClockPeriod
			}
		case 3:
			if others == nil {
				others = nonCandidates(ev)
			}
			s.Center = others[srng.Intn(len(others))]
		}
		return s
	}
}

// hardenedEvaluation is the default evaluation with every MPU register
// hardened (F = 2), so copies of one register attack flip different
// random subsets of its spot.
func hardenedEvaluation(t testing.TB) *core.Evaluation {
	ev := evaluation(t)
	ev.Engine.Hardened = map[netlist.NodeID]float64{}
	for _, r := range ev.Engine.SoC.MPU.Netlist.Regs() {
		ev.Engine.Hardened[r] = 2
	}
	return ev
}

// TestBatchRunParity is the per-sample contract: RunBatch must return
// exactly what the same sequence of RunOnce calls returns — outcome,
// classification, flipped set, and the RTL cycle count — including for
// samples whose lanes diverge behaviorally. Each case checks its fixed
// sample stream chunk by chunk until every batch event it requires has
// occurred, and fails if they have not after maxChunks. The gate cases
// keep lanes through DMA-read divergences, and on the default attack
// one such lane's registers return to golden while its DMAViol offset
// is nonzero, so its cut must wait; the register case groups diverged
// lanes, some of them with an offset. Lanes that share a group almost
// never respond differently later, so the split case builds its input:
// 64 copies of one wide register strike on the hardened evaluation,
// whose copies flip different subsets of the spot. Two gate cases
// check the draws the spot records must leave to the spot lookup: draws
// outside their coverage (radius, width, instant, center), and the
// draws of an evaluation whose attack is a wider one with other
// candidates.
func TestBatchRunParity(t *testing.T) {
	nominal := func(ev *core.Evaluation, srng *rand.Rand) fault.Sample { return ev.Attack.SampleNominal(srng) }
	wide := func(ev *core.Evaluation, srng *rand.Rand) fault.Sample {
		s := ev.Attack.SampleNominal(srng)
		s.Radius = 6
		return s
	}
	for _, tc := range []struct {
		name string
		ev   func(testing.TB) *core.Evaluation
		mode montecarlo.Mode
		draw func(*core.Evaluation, *rand.Rand) fault.Sample
		// A chunk is draws × copies samples, each draw repeated copies
		// times in a row.
		draws, copies, maxChunks int
		need                     []batchEvent
	}{
		{"gate-concentrated", concentratedEvaluation, montecarlo.GateAttack, nominal, 1500, 1, 1, []batchEvent{dmaKept}},
		{"gate-default", evaluation, montecarlo.GateAttack, nominal, 5000, 1, 12, []batchEvent{dmaKept, cutWithheld}},
		{"register-default", evaluation, montecarlo.RegisterAttack, nominal, 5000, 1, 4, []batchEvent{sharedGroup, dmaKept, offsetGroup}},
		{"register-hardened-wide", hardenedEvaluation, montecarlo.RegisterAttack, wide, 16, 64, 60, []batchEvent{laterSplit}},
		{"gate-uncovered", evaluation, montecarlo.GateAttack, uncoveredSample(), 5000, 1, 12, []batchEvent{dmaKept}},
		{"gate-replaced-attack", replacedAttackEvaluation, montecarlo.GateAttack, nominal, 5000, 1, 12, []batchEvent{dmaKept}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := tc.ev(t)
			srng := rand.New(rand.NewSource(99))
			rngScalar := rand.New(rand.NewSource(17))
			rngBatch := rand.New(rand.NewSource(17))
			rtl, diverged, checked := 0, 0, 0
			missing := tc.need
			for chunk := 0; chunk < tc.maxChunks && len(missing) > 0; chunk++ {
				samples := make([]fault.Sample, 0, tc.draws*tc.copies)
				for range tc.draws {
					s := tc.draw(ev, srng)
					for range tc.copies {
						samples = append(samples, s)
					}
				}
				scalar := make([]montecarlo.RunResult, len(samples))
				for i, s := range samples {
					scalar[i] = ev.Engine.RunOnce(rngScalar, s, tc.mode)
				}
				batched := ev.Engine.RunBatch(rngBatch, samples, tc.mode)
				for i := range samples {
					sr, br := scalar[i], batched[i]
					if sr.Success != br.Success || sr.Class != br.Class || sr.Path != br.Path ||
						sr.ResumeCycles != br.ResumeCycles {
						t.Fatalf("chunk %d sample %d (%+v): scalar %+v, batched %+v", chunk, i, samples[i], sr, br)
					}
					if !slices.Equal(sr.Flipped, br.Flipped) {
						t.Fatalf("chunk %d sample %d: flipped %v vs %v", chunk, i, sr.Flipped, br.Flipped)
					}
					if sr.Path == montecarlo.PathRTL {
						rtl++
						if sr.Success {
							diverged++
						}
					}
				}
				checked += len(samples)
				n := ev.Engine.BatchCounts()
				missing = slices.DeleteFunc(slices.Clone(missing), func(e batchEvent) bool { return e.seen(n) })
			}
			t.Logf("%d samples, %d RTL resumes, %d successful (diverged) lanes; %+v",
				checked, rtl, diverged, ev.Engine.BatchCounts())
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
			for _, e := range missing {
				t.Errorf("no %s in %d samples", e.what, checked)
			}
		})
	}
}

// TestOffsetGroupEndsInScalarState follows single register attacks
// whose lane enters a group with a nonzero DMAViol offset: it diverged
// at a DMA read, stayed in the batch, and diverged again at a core
// access. The group must start from the state the lane's scalar resume
// holds at that cycle, DMAViol included, so both resumes must end in
// the same SoC state. Outcomes alone cannot show a wrong DMAViol here:
// it feeds only the convergence cut, and on the bundled MPU a lane that
// diverged at a core access never returns to the golden state.
func TestOffsetGroupEndsInScalarState(t *testing.T) {
	ev := evaluation(t)
	g := ev.Golden
	srng := rand.New(rand.NewSource(99))
	rng := rand.New(rand.NewSource(1))
	found := 0
	for i := 0; i < 20000 && found < 3; i++ {
		s := ev.Attack.SampleNominal(srng)
		before := ev.Engine.BatchCounts().OffsetGroups
		got := ev.Engine.RunBatch(rng, []fault.Sample{s}, montecarlo.RegisterAttack)[0]
		if ev.Engine.BatchCounts().OffsetGroups == before {
			continue
		}
		found++
		grouped := ev.Engine.SoC.Snapshot()
		want := ev.Engine.RunOnce(rng, s, montecarlo.RegisterAttack)
		scalar := ev.Engine.SoC.Snapshot()
		if got.Success != want.Success || got.ResumeCycles != want.ResumeCycles {
			t.Fatalf("sample %+v: batched %+v, RunOnce %+v", s, got, want)
		}
		if grouped.Cycle != scalar.Cycle || grouped.Arch != scalar.Arch ||
			!slices.Equal(grouped.Mem, scalar.Mem) || !slices.Equal(grouped.MPURegs, scalar.MPURegs) {
			t.Fatalf("sample %+v: group ended in %+v at cycle %d, scalar resume in %+v at cycle %d",
				s, grouped.Arch, grouped.Cycle, scalar.Arch, scalar.Cycle)
		}
		if c := scalar.Cycle; c < len(g.Arch) && scalar.DMAViol == g.Arch[c].DMAViol {
			t.Fatalf("sample %+v: DMAViol %d equals golden: no offset to carry", s, scalar.DMAViol)
		}
	}
	if found == 0 {
		t.Fatal("no register attack in 20000 draws entered a group with a nonzero offset")
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
		before := ev.Engine.BatchCounts().Lanes
		ev.Engine.RunBatch(rng, []fault.Sample{sample}, montecarlo.RegisterAttack)
		found = ev.Engine.BatchCounts().Lanes > before
	}
	if !found {
		t.Fatal("no register attack in 10000 draws diverged into a grouped resume")
	}
	want := ev.Engine.RunOnce(rng, sample, montecarlo.RegisterAttack)

	samples := make([]fault.Sample, 64)
	for i := range samples {
		samples[i] = sample
	}
	n0 := ev.Engine.BatchCounts()
	got := ev.Engine.RunBatch(rng, samples, montecarlo.RegisterAttack)
	n1 := ev.Engine.BatchCounts()
	if n1.Groups-n0.Groups != 2 || n1.Splits-n0.Splits != 0 || n1.Lanes-n0.Lanes != 64 {
		t.Errorf("64-lane class ran as %d groups (%d splits) over %d lanes, want 2 groups, 0 splits, 64 lanes",
			n1.Groups-n0.Groups, n1.Splits-n0.Splits, n1.Lanes-n0.Lanes)
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
		before := evCut.Engine.BatchCounts().Cut
		got := evCut.Engine.RunBatch(rng, []fault.Sample{s}, montecarlo.GateAttack)[0]
		if evCut.Engine.BatchCounts().Cut == before {
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

// TestBatchCampaignEquivalence is the acceptance criterion: a
// fixed-seed RunCampaign must be bit-identical to the scalar reference
// loop over RunOnce — SSF, per-sample convergence trace,
// success/class/path counts, register attribution, patterns, and even
// the total RTL cycle count.
func TestBatchCampaignEquivalence(t *testing.T) {
	ev := evaluation(t)
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{
		// Not a multiple of the 2048-draw window: the final window is
		// partial.
		Samples: 3000, Seed: 21,
		TrackConvergence: true, TrackPatterns: true,
	}
	scalar, err := ev.Engine.RunCampaignScalar(context.Background(), sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
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
	scalar, err := ev.Engine.RunCampaignScalar(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
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
	scalar, err := ev.Engine.RunCampaignScalar(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
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
// use the cached-window fast path; RunCampaign must route them through
// the scalar RunOnce and still match the scalar reference exactly.
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
	scalar, err := ev.Engine.RunCampaignScalar(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
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

// TestBatchCampaignConfigurations compares RunCampaign with the scalar
// reference loop on configurations whose callers ran the scalar loop
// while campaigns had two: the dual-rail MPU of the countermeasures
// experiment, the illegal-read benchmark (ssfeval -bench read), and
// gate and register attacks on an engine hardened with the critical
// registers of a base campaign, as harden.Evaluate and the rank service
// run it. A hardened engine draws from the rng for each flip on a
// hardened register, so it must draw each sample just before its
// evaluation; drawing its window ahead changes both attack modes'
// campaigns. Gate attacks use the importance sampler, register attacks
// the random one.
func TestBatchCampaignConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dualRail := func(t *testing.T) *core.Evaluation {
		opts := framework(t).Opts
		opts.SoC.MPU.DualRail = true
		fw, err := core.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	read := func(t *testing.T) *core.Evaluation {
		ev, err := framework(t).NewEvaluation(core.BenchmarkIllegalRead, core.DefaultAttackSpec())
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	hardened := func(t *testing.T) *core.Evaluation {
		ev := evaluation(t)
		sampler, err := ev.ImportanceSampler()
		if err != nil {
			t.Fatal(err)
		}
		base, err := ev.Engine.RunCampaign(context.Background(), sampler, montecarlo.CampaignOptions{Samples: 20000, Seed: 76})
		if err != nil {
			t.Fatal(err)
		}
		resilience, area := harden.DefaultCellParams()
		plan := harden.Plan{Regs: harden.FromCritical(base.CriticalRegisters(), 0.95), Resilience: resilience, AreaFactor: area}
		if len(plan.Regs) == 0 {
			t.Fatal("base campaign found no critical register")
		}
		plan.Apply(ev.Engine)
		return ev
	}
	gate, register := montecarlo.GateAttack, montecarlo.RegisterAttack
	for _, tc := range []struct {
		name  string
		ev    func(*testing.T) *core.Evaluation
		modes []montecarlo.Mode
	}{
		{"dual-rail", dualRail, []montecarlo.Mode{gate, register}},
		{"read", read, []montecarlo.Mode{gate, register}},
		{"hardened-gate", hardened, []montecarlo.Mode{gate}},
		{"hardened-register", hardened, []montecarlo.Mode{register}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := tc.ev(t)
			for _, mode := range tc.modes {
				var sampler sampling.Sampler = ev.RandomSampler()
				opts := montecarlo.CampaignOptions{Samples: 8000, Seed: 77, Mode: mode}
				if mode == gate {
					var err error
					if sampler, err = ev.ImportanceSampler(); err != nil {
						t.Fatal(err)
					}
					opts.Samples = 20000
				}
				scalar, err := ev.Engine.RunCampaignScalar(context.Background(), sampler, opts)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := ev.Engine.RunCampaign(context.Background(), sampler, opts)
				if err != nil {
					t.Fatal(err)
				}
				compareCampaigns(t, mode.String(), batched, scalar)
				t.Logf("%v: SSF %g, %d successes, paths %v, %d RTL cycles",
					mode, scalar.SSF(), scalar.Successes, scalar.PathCounts, scalar.RTLCycles)
				if scalar.PathCounts[montecarlo.PathRTL] == 0 {
					t.Errorf("%v: no RTL resume — the comparison is vacuous", mode)
				}
			}
		})
	}
}

// chainedBlocks is the round loop's answer rebuilt from one-stream
// campaigns: blocks of checkEvery samples (the last one cut at n), block
// k seeded seed·999983 + k, run through the scalar reference loop on
// one engine and merged in index order.
func chainedBlocks(t *testing.T, eng *montecarlo.Engine, sampler sampling.Sampler, mode montecarlo.Mode, seed int64, n, checkEvery int) *montecarlo.Campaign {
	t.Helper()
	var want *montecarlo.Campaign
	for k, done := int64(0), 0; done < n; k++ {
		c, err := eng.RunCampaignScalar(context.Background(), sampler, montecarlo.CampaignOptions{
			Samples: min(checkEvery, n-done), Mode: mode, Seed: seed*999983 + k,
		})
		if err != nil {
			t.Fatal(err)
		}
		done += c.Est.N()
		if want == nil {
			want = c
		} else if err := want.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestBatchParallelAndAdaptive: the round loop runs the lane-batched
// loop in every block, on cloned engines and on one engine across
// rounds, and must stay bit-identical to the same blocks run through
// the scalar reference loop and merged in index order. A fixed-size
// RunAdaptiveParallel of 3,001 samples in blocks of 1,000 runs one
// round of three blocks on three engines and a last block of one
// sample.
func TestBatchParallelAndAdaptive(t *testing.T) {
	ctx := context.Background()
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode    montecarlo.Mode
		samples int
	}{
		{montecarlo.GateAttack, 3000},
		{montecarlo.GateAttack, 3001},
		{montecarlo.RegisterAttack, 3001},
	} {
		label := fmt.Sprintf("parallel %v %d", tc.mode, tc.samples)
		gotP, err := montecarlo.RunAdaptiveParallel(ctx, engines, ev.RandomSampler(), montecarlo.AdaptiveOptions{
			Mode: tc.mode, Seed: 11,
			MinSamples: tc.samples, MaxSamples: tc.samples, CheckEvery: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		compareCampaigns(t, label, gotP, chainedBlocks(t, engines[0], ev.RandomSampler(), tc.mode, 11, tc.samples, 1000))
		if gotP.Est.N() != tc.samples || gotP.PathCounts[montecarlo.PathRTL] == 0 {
			t.Errorf("%s: %d samples with paths %v: not the intended workload", label, gotP.Est.N(), gotP.PathCounts)
		}
	}

	// A fixed-size answer (MinSamples = MaxSamples) on one engine runs
	// every block of CheckEvery samples in a round of its own.
	aopts := montecarlo.DefaultAdaptive(0.02)
	aopts.Seed = 13
	aopts.MinSamples, aopts.MaxSamples = 4000, 4000
	gotA, err := runAdaptive(ctx, ev, ev.RandomSampler(), aopts)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaigns(t, "adaptive", gotA, chainedBlocks(t, ev.Engine, ev.RandomSampler(), aopts.Mode, aopts.Seed, aopts.MaxSamples, aopts.CheckEvery))
	if gotA.Est.N() != aopts.MaxSamples || gotA.PathCounts[montecarlo.PathRTL] == 0 {
		t.Errorf("adaptive %d samples with paths %v: not the intended workload", gotA.Est.N(), gotA.PathCounts)
	}
}

// TestSpotRecordsRejectMostDraws checks the spot records on
// default-technique importance draws: at least 75% must be rejected
// before their spot lookup (82.2% over perfbench's gate_importance
// answers), and no rejected draw may flip a register in the scalar
// RunOnce. On an evaluation of a wider attack with other candidates,
// draws around those candidates, none a default candidate, must be
// rejected too, so the records follow the attack.
func TestSpotRecordsRejectMostDraws(t *testing.T) {
	ev := evaluation(t)
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	check := func(ev *core.Evaluation, s fault.Sample) {
		t.Helper()
		if res := ev.Engine.RunOnce(rng, s, montecarlo.GateAttack); len(res.Flipped) != 0 {
			t.Fatalf("sample %+v: rejected before its spot lookup, but RunOnce flipped %v", s, res.Flipped)
		}
	}
	const draws = 20000
	rejected := 0
	for i := range draws {
		s, _ := sampler.Draw(rng)
		if ev.Engine.SpotRecordRejects(s) {
			rejected++
			if i < 4000 {
				check(ev, s)
			}
		}
	}
	share := float64(rejected) / draws
	t.Logf("spot records rejected %d of %d importance draws (%.1f%%)", rejected, draws, 100*share)
	if share < 0.75 {
		t.Fatalf("spot records rejected %.1f%% of importance draws, want at least 75%%", 100*share)
	}

	wider := replacedAttackEvaluation(t)
	newCenters := 0
	for range 4000 {
		if s := wider.Attack.SampleNominal(rng); wider.Engine.SpotRecordRejects(s) {
			newCenters++
			check(wider, s)
		}
	}
	t.Logf("on the wider attack, %d of 4000 draws around its centers were rejected", newCenters)
	if newCenters == 0 {
		t.Fatal("no draw around a center of the replaced attack was rejected: the records did not follow it")
	}
}
