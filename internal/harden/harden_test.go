package harden

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sampling"
)

var (
	evOnce sync.Once
	ev     *core.Evaluation
	evErr  error
)

func evaluation(t *testing.T) *core.Evaluation {
	t.Helper()
	evOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.Precharac.MaxDepth = 51
		opts.Precharac.Probes = 1
		opts.Precharac.LifetimeCap = 120
		fw, err := core.Build(opts)
		if err != nil {
			evErr = err
			return
		}
		ev, evErr = fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	})
	if evErr != nil {
		t.Fatal(evErr)
	}
	return ev
}

func TestFromCritical(t *testing.T) {
	ranked := []montecarlo.CriticalRegister{
		{Reg: 10, Share: 0.7}, {Reg: 11, Share: 0.2}, {Reg: 12, Share: 0.1},
	}
	regs := FromCritical(ranked, 0.85)
	if len(regs) != 2 || regs[0] != 10 || regs[1] != 11 {
		t.Fatalf("FromCritical = %v", regs)
	}
	if len(FromCritical(ranked, 1.0)) != 3 {
		t.Error("full coverage")
	}
	if regs := Top(ranked, 2); !slices.Equal(regs, []netlist.NodeID{10, 11}) {
		t.Errorf("Top(2) = %v", regs)
	}
	if regs := Top(ranked, 5); !slices.Equal(regs, []netlist.NodeID{10, 11, 12}) {
		t.Errorf("Top(5) of 3 ranked = %v", regs)
	}
}

func TestAreaOverhead(t *testing.T) {
	nl := netlist.New(16)
	in := nl.AddInput("in")
	g := nl.AddGate(netlist.Inv, in)
	r1 := nl.AddDFF(g, "r1", false)
	nl.AddDFF(g, "r2", false)
	m := netlist.DefaultAreaModel()
	total := m.TotalArea(nl)
	p := Plan{Regs: []netlist.NodeID{r1}, Resilience: 10, AreaFactor: 3}
	want := 2 * m.PerCell[netlist.DFF] / total
	if got := p.AreaOverhead(nl); math.Abs(got-want) > 1e-12 {
		t.Errorf("overhead %v, want %v", got, want)
	}
	// Hardening nothing costs nothing.
	if (Plan{Resilience: 10, AreaFactor: 3}).AreaOverhead(nl) != 0 {
		t.Error("empty plan should cost nothing")
	}
}

func TestApplyRestores(t *testing.T) {
	e := evaluation(t).Engine
	p := Plan{Regs: e.SoC.MPU.Groups["cfg_perm1"], Resilience: 10, AreaFactor: 3}
	if len(e.Hardened) != 0 {
		t.Fatal("engine already hardened")
	}
	restore := p.Apply(e)
	if len(e.Hardened) != len(p.Regs) {
		t.Fatalf("hardened map size %d", len(e.Hardened))
	}
	if e.Hardened[p.Regs[0]] != 10 {
		t.Error("resilience not installed")
	}
	restore()
	if len(e.Hardened) != 0 {
		t.Error("restore did not revert")
	}
}

func TestEvaluateImprovesSecurity(t *testing.T) {
	e := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 8000, Seed: 5, Mode: montecarlo.RegisterAttack}
	// Identify critical registers first.
	camp, err := e.Engine.RunCampaign(context.Background(), e.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Successes == 0 {
		t.Fatal("no successes to harden against")
	}
	ranked := camp.CriticalRegisters()
	resil, area := DefaultCellParams()
	plan := Plan{Regs: FromCritical(ranked, 0.95), Resilience: resil, AreaFactor: area}
	res, err := Evaluate(context.Background(), e.Engine, e.RandomSampler(), opts, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseSSF <= 0 {
		t.Fatal("base SSF zero")
	}
	if !res.HardenedNoSuccess && res.HardenedSSF >= res.BaseSSF {
		t.Errorf("hardening did not improve: %v -> %v", res.BaseSSF, res.HardenedSSF)
	}
	if res.Improvement < 2 {
		t.Errorf("improvement %.2fx, expected multi-x", res.Improvement)
	}
	if res.AreaOverhead <= 0 || res.AreaOverhead > 0.2 {
		t.Errorf("area overhead %v implausible", res.AreaOverhead)
	}
	if res.NumRegs != len(plan.Regs) || res.RegFraction <= 0 {
		t.Error("bookkeeping wrong")
	}
	// The engine must be left unhardened.
	if len(e.Engine.Hardened) != 0 {
		t.Error("Evaluate leaked hardening state")
	}
}

func TestEvaluateEmptyPlan(t *testing.T) {
	e := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 10, Seed: 1}
	if _, err := Evaluate(context.Background(), e.Engine, e.RandomSampler(), opts, Plan{Resilience: 10, AreaFactor: 3}); err == nil {
		t.Error("empty plan accepted")
	}
}

// TestImprovementBound: with successes the improvement is the plain
// ratio; with none it is base / (w_max·(1 − 0.05^(1/n))), with w_max 1
// for random draws and 1/DefaultMixUniform for importance draws, and 0
// (no bound) for samplers whose largest weight is unknown. Below 1 it is
// unresolved, which includes a base campaign without a success.
func TestImprovementBound(t *testing.T) {
	e := evaluation(t)
	random := e.RandomSampler()
	importance, err := e.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	stratified, err := e.Sampler("stratified", sampling.DefaultAlpha, sampling.DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	ub500 := 1 - math.Pow(0.05, 1.0/500) // ≈ 3/500
	cases := []struct {
		name             string
		base, hardened   float64
		n                int
		sampler          sampling.Sampler
		want             float64
		noSuccess, unres bool
	}{
		{"hits", 4e-4, 1e-4, 500, random, 4, false, false},
		{"no hits anywhere", 0, 0, 500, random, 0, true, true},
		{"no hits anywhere, importance", 0, 0, 500, importance, 0, true, true},
		{"random, resolved", 0.05, 0, 500, random, 0.05 / ub500, true, false},
		{"random, unresolved", 1e-3, 0, 500, random, 1e-3 / ub500, true, true},
		{"random, one draw", 0.5, 0, 1, random, 0.5 / 0.95, true, true},
		{"importance", 7.2e-4, 0, 500, importance, 7.2e-4 / (20 * ub500), true, true},
		{"stratified", 7.2e-4, 0, 500, stratified, 0, true, true},
	}
	for _, c := range cases {
		got, noSuccess := Improvement(c.base, c.hardened, c.n, c.sampler)
		if math.Abs(got-c.want) > 1e-12*c.want || noSuccess != c.noSuccess {
			t.Errorf("%s: Improvement = %v, %v; want %v, %v", c.name, got, noSuccess, c.want, c.noSuccess)
		}
		r := Result{Improvement: got, HardenedNoSuccess: noSuccess}
		if r.Unresolved() != c.unres {
			t.Errorf("%s: Unresolved() = %v at improvement %v", c.name, r.Unresolved(), got)
		}
	}
	// The rank body {"samples": 500, "variants": [{"top_n": 3,
	// "resilience": 10}]} on a default server has a base SSF of
	// 0.361/500, which the old base_ssf × samples rule reported as an
	// improvement of 0.361; the sound bound is ≈0.006.
	if got, _ := Improvement(0.361/500, 0, 500, importance); math.Abs(got-0.006) > 0.0005 {
		t.Errorf("500-sample zero-hit improvement %v, want ≈0.006", got)
	}
}
