package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sampling"
)

var (
	fwOnce sync.Once
	fwVal  *Framework
	fwErr  error
)

func testFramework(t *testing.T) *Framework {
	t.Helper()
	fwOnce.Do(func() {
		opts := DefaultOptions()
		opts.Precharac.MaxDepth = 51
		opts.Precharac.Probes = 1
		opts.Precharac.LifetimeCap = 120
		fwVal, fwErr = Build(opts)
	})
	if fwErr != nil {
		t.Fatal(fwErr)
	}
	return fwVal
}

func TestBuildProducesArtifacts(t *testing.T) {
	fw := testFramework(t)
	if fw.MPU == nil || fw.Place == nil || fw.Char == nil {
		t.Fatal("missing artifacts")
	}
	if len(fw.Char.MemoryRegs()) == 0 || len(fw.Char.ComputationRegs()) == 0 {
		t.Error("characterization empty")
	}
	if fw.MPU.Netlist.Node(fw.SecurityTarget()).Type == netlist.DFF {
		t.Error("security target should be the decision gate, not the register")
	}
}

func TestCandidateBlockProperties(t *testing.T) {
	fw := testFramework(t)
	all := fw.CandidateBlock(1.0)
	eighth := fw.CandidateBlock(0.125)
	if len(eighth) >= len(all) {
		t.Fatalf("block %d not smaller than all %d", len(eighth), len(all))
	}
	// The decision logic (unroll 0) must be inside the block.
	for _, g := range fw.Char.CombLayer(fw.MPU.Netlist, 0) {
		found := false
		for _, c := range eighth {
			if c == g {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("decision gate %d missing from candidate block", g)
		}
	}
	// Sorted, deduped, combinational only.
	for i, g := range eighth {
		if i > 0 && eighth[i-1] >= g {
			t.Fatal("block not sorted/deduped")
		}
		ty := fw.MPU.Netlist.Node(g).Type
		if !ty.IsCombinational() || ty == netlist.Const0 || ty == netlist.Const1 {
			t.Fatalf("non-gate %v in block", ty)
		}
	}
}

func TestBenchmarkPrograms(t *testing.T) {
	fw := testFramework(t)
	for _, b := range []Benchmark{BenchmarkIllegalWrite, BenchmarkIllegalRead} {
		p, err := fw.BenchmarkProgram(b)
		if err != nil {
			t.Fatal(err)
		}
		if p.TrapHandler < 0 || len(p.PreAttack) == 0 {
			t.Errorf("%v: metadata incomplete", b)
		}
	}
	if _, err := fw.BenchmarkProgram(Benchmark(99)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if BenchmarkIllegalRead.String() != "memory-read" || Benchmark(99).String() == "" {
		t.Error("Benchmark.String")
	}
}

func TestEvaluationEndToEnd(t *testing.T) {
	fw := testFramework(t)
	ev, err := fw.NewEvaluation(BenchmarkIllegalRead, DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Golden.TargetCycle <= 0 {
		t.Fatal("golden run missing")
	}
	imp, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	if ev.RandomSampler().Name() == "" || imp.Name() == "" {
		t.Error("unnamed sampler")
	}
	camp, err := ev.EvaluateSSF(context.Background(), imp, DefaultCampaign(200))
	if err != nil {
		t.Fatal(err)
	}
	if camp.Est.N() != 200 || len(camp.Convergence) != 200 {
		t.Errorf("campaign bookkeeping: N=%d conv=%d", camp.Est.N(), len(camp.Convergence))
	}
}

// TestSamplerTable: every name the table lists builds a sampler whose
// Name() is that name, α and β reach the importance proposal, the
// default is one of the names, and any other name, the deleted cone
// sampler's included, is an error that lists the known names.
func TestSamplerTable(t *testing.T) {
	fw := testFramework(t)
	ev, err := fw.NewEvaluation(BenchmarkIllegalWrite, DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	names := SamplerNames()
	if !slices.Equal(names, []string{"random", "importance", "stratified"}) {
		t.Errorf("SamplerNames() = %v", names)
	}
	if err := CheckSampler(DefaultSampler); err != nil {
		t.Errorf("DefaultSampler: %v", err)
	}
	for _, name := range names {
		if err := CheckSampler(name); err != nil {
			t.Errorf("CheckSampler(%q): %v", name, err)
		}
		sp, err := ev.Sampler(name, sampling.DefaultAlpha, sampling.DefaultBeta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sp.Name() != name {
			t.Errorf("sampler %q builds %q", name, sp.Name())
		}
	}
	// A construction error returns a true nil, not an interface that
	// holds a nil sampler.
	for _, name := range names[1:] {
		sp, err := ev.Sampler(name, -1, sampling.DefaultBeta)
		if err == nil {
			t.Errorf("%s: negative alpha accepted", name)
		}
		if sp != nil {
			t.Errorf("%s: negative alpha returned the non-nil sampler %#v", name, sp)
		}
	}
	if sp, err := ev.ImportanceSampler(); sp == nil || err != nil {
		t.Errorf("ImportanceSampler() = %v, %v", sp, err)
	}
	for _, name := range []string{"cone", "fanin-cone", "sobol", "", "Random"} {
		sp, err := ev.Sampler(name, sampling.DefaultAlpha, sampling.DefaultBeta)
		if sp != nil {
			t.Errorf("%q built a sampler", name)
		}
		for _, err := range []error{err, CheckSampler(name)} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown sampler %q", name)) ||
				!strings.Contains(err.Error(), strings.Join(names, ", ")) {
				t.Errorf("%q: error %v, want one that names it and lists %v", name, err, names)
			}
		}
	}
}

func TestDefaultCampaignOptions(t *testing.T) {
	o := DefaultCampaign(123)
	if o.Samples != 123 || !o.TrackConvergence || o.Mode != montecarlo.GateAttack {
		t.Errorf("options = %+v", o)
	}
}

func TestCandidateBlockTinyFraction(t *testing.T) {
	fw := testFramework(t)
	// Even a near-zero fraction must keep the decision logic intact.
	tiny := fw.CandidateBlock(1e-9)
	decision := fw.Char.CombLayer(fw.MPU.Netlist, 0)
	if len(tiny) < len(decision) {
		t.Fatalf("tiny block %d smaller than decision logic %d", len(tiny), len(decision))
	}
}

func TestSecurityTargetIsLegalGate(t *testing.T) {
	fw := testFramework(t)
	if name := fw.MPU.Netlist.Node(fw.SecurityTarget()).Name; name != "legal" {
		t.Fatalf("SecurityTarget %d is named %q, not legal", fw.SecurityTarget(), name)
	}
}
