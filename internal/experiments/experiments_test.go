package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/montecarlo"
)

var (
	ctxOnce sync.Once
	ctxVal  *Context
	ctxErr  error
)

func testContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		ctxVal, ctxErr = NewContext(2500)
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctxVal
}

func TestFig4Shapes(t *testing.T) {
	c := testContext(t)
	r := Fig4(c)
	if r.LifetimeHist.Total() == 0 || r.ContamHist.Total() == 0 {
		t.Fatal("empty histograms")
	}
	if r.LifetimeHist.Total() != r.ContamHist.Total() {
		t.Error("histogram totals differ")
	}
	// Paper: more than half of the registers are memory-type with
	// long lifetime and ~0 contamination.
	if r.MemoryShare <= 0.5 {
		t.Errorf("memory share %.2f, want > 0.5", r.MemoryShare)
	}
	if r.LongLifetimeShare <= 0.5 {
		t.Errorf("long-lifetime share %.2f", r.LongLifetimeShare)
	}
	if r.ZeroContamShare <= 0.5 {
		t.Errorf("zero-contamination share %.2f", r.ZeroContamShare)
	}
	if !strings.Contains(r.String(), "Fig 4(a)") {
		t.Error("report missing")
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testContext(t)
	r, err := Fig7(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.SingleBit + r.SingleByte + r.MultiByte
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pattern shares sum to %v", sum)
	}
	// Single-bit errors dominate, but multi-bit patterns exist — the
	// paper's argument against the single-bit abstraction.
	if r.SingleBit <= r.MultiByte || r.SingleBit <= r.SingleByte {
		t.Errorf("single-bit not dominant: %+v", r)
	}
	if r.MultiRegShare == 0 {
		t.Error("no multi-register comb patterns found")
	}
	if r.CombPatterns == 0 || r.SeqPatterns == 0 {
		t.Error("pattern sets empty")
	}
	psum := r.CombOnly + r.Common + r.SeqOnly
	if math.Abs(psum-1) > 1e-9 {
		t.Errorf("partition sums to %v", psum)
	}
}

func TestFig8Shapes(t *testing.T) {
	c := testContext(t)
	r, err := Fig8(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range r.TimingProbs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("g_T sums to %v", sum)
	}
	// g_T concentrates at small t relative to uniform.
	uniform := 1.0 / float64(len(r.TimingProbs))
	if r.TimingProbs[0] <= uniform {
		t.Errorf("g_T(0) = %v, uniform %v", r.TimingProbs[0], uniform)
	}
	// Sample-space reduction: the fanin cone holds fewer registers
	// than the design, computation-type fewer still.
	for d := range r.FaninRegs {
		if r.FaninRegs[d] > 1 || r.FaninCompRegs[d] > r.FaninRegs[d] {
			t.Fatalf("depth %d: fanin %v comp %v", d, r.FaninRegs[d], r.FaninCompRegs[d])
		}
	}
	if r.FaninRegs[5] >= 1 {
		t.Error("no sample-space reduction")
	}
}

func TestFig9Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testContext(t)
	r, err := Fig9(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Strategies) != 2 {
		t.Fatal("expected 2 strategies")
	}
	for _, s := range r.Strategies {
		if len(s.Convergence) != c.Samples {
			t.Errorf("%s convergence length %d", s.Name, len(s.Convergence))
		}
	}
	// Importance sampling must find (weighted) successes far more
	// often than random at the same budget.
	if r.Strategies[1].Successes <= r.Strategies[0].Successes {
		t.Errorf("importance %d successes vs random %d",
			r.Strategies[1].Successes, r.Strategies[0].Successes)
	}
	if !strings.Contains(r.String(), "Fig 9(b)") {
		t.Error("report missing")
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testContext(t)
	r, err := Fig10(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Masked+r.MemOnly+r.Both-1) > 1e-9 {
		t.Error("class shares do not sum to 1")
	}
	// Masking dominates; RTL resumes are rare (the framework's core
	// efficiency claim).
	if r.Masked < 0.5 {
		t.Errorf("masked %.2f, expected majority", r.Masked)
	}
	if r.RTLShare > 0.1 {
		t.Errorf("RTL share %.2f, expected under 10%%", r.RTLShare)
	}
	// Register attacks dominate combinational attacks, as in the
	// paper (0.027 vs 0.007).
	if r.RegSSF <= r.CombSSF {
		t.Errorf("reg SSF %v vs comb SSF %v", r.RegSSF, r.CombSSF)
	}
	if r.RegSuccesses == 0 {
		t.Error("no register-attack successes")
	}
}

func TestFig11Monotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testContext(t)
	r, err := Fig11(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Temporal) != len(TemporalRanges) || len(r.Spatial) != len(SpatialFracs) {
		t.Fatal("sweep sizes wrong")
	}
	// Better temporal accuracy (smaller range) must raise SSF
	// dramatically: compare the extremes.
	first, last := r.Temporal[0], r.Temporal[len(r.Temporal)-1]
	if first.WriteSSF <= last.WriteSSF {
		t.Errorf("temporal accuracy has no effect: %v vs %v", first.WriteSSF, last.WriteSSF)
	}
	if first.WriteNorm < 5 {
		t.Errorf("1-cycle window norm %.1fx, expected strong gain", first.WriteNorm)
	}
	// Better spatial accuracy (delta at the decision gate) must beat
	// the uniform block.
	sFirst, sLast := r.Spatial[0], r.Spatial[len(r.Spatial)-1]
	if sLast.WriteSSF <= sFirst.WriteSSF {
		t.Errorf("spatial accuracy has no effect: %v vs %v", sFirst.WriteSSF, sLast.WriteSSF)
	}
}

func TestCriticalStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testContext(t)
	r, err := Critical(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ranked) == 0 || len(r.Names) != len(r.Ranked) {
		t.Fatal("ranking malformed")
	}
	// Strong concentration: a small fraction of registers carries
	// 95% of the SSF.
	if r.Fraction95 > 0.15 {
		t.Errorf("95%% coverage needs %.1f%% of registers", r.Fraction95*100)
	}
	if r.Hardening.Improvement < 2 {
		t.Errorf("hardening improvement %.1fx", r.Hardening.Improvement)
	}
	if r.Hardening.AreaOverhead > 0.1 {
		t.Errorf("area overhead %.1f%%", r.Hardening.AreaOverhead*100)
	}
	if !strings.Contains(r.String(), "Headline") {
		t.Error("report missing")
	}
}

func TestContextValidation(t *testing.T) {
	ctx, err := NewContext(0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Samples != 10000 {
		t.Errorf("default samples = %d", ctx.Samples)
	}
	o := ctx.campaign(montecarlo.RegisterAttack)
	if o.Mode != montecarlo.RegisterAttack || o.Samples != 10000 {
		t.Errorf("campaign opts = %+v", o)
	}
}

func TestCountermeasures(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testContext(t)
	r, err := Countermeasures(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base, hard, dual, both := r.Rows[0], r.Rows[1], r.Rows[2], r.Rows[3]
	if base.AreaOverhead != 0 {
		t.Error("baseline overhead nonzero")
	}
	// Hardening cuts the register-attack SSF at small area cost.
	if hard.RegSSF >= base.RegSSF {
		t.Errorf("hardening ineffective: %v vs %v", hard.RegSSF, base.RegSSF)
	}
	if hard.AreaOverhead <= 0 || hard.AreaOverhead > 0.1 {
		t.Errorf("hardening overhead %v", hard.AreaOverhead)
	}
	// Dual-rail logic kills (or at least decimates) the gate-attack
	// surface but not the register surface, at substantial area cost.
	if base.CombSSF > 0 && dual.CombSSF > base.CombSSF/2 {
		t.Errorf("dual-rail ineffective on gate attacks: %v vs %v", dual.CombSSF, base.CombSSF)
	}
	if dual.RegSSF < base.RegSSF/2 {
		t.Errorf("dual-rail should not fix register SEUs: %v vs %v", dual.RegSSF, base.RegSSF)
	}
	if dual.AreaOverhead < 0.2 {
		t.Errorf("dual-rail overhead %v implausibly low", dual.AreaOverhead)
	}
	// The combination dominates on both surfaces.
	if both.RegSSF >= base.RegSSF || (base.CombSSF > 0 && both.CombSSF > base.CombSSF/2) {
		t.Errorf("combination not dominant: %+v", both)
	}
	if !strings.Contains(r.String(), "Countermeasure comparison") {
		t.Error("report missing")
	}
}
