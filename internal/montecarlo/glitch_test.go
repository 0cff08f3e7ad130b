package montecarlo_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/timingsim"
)

func TestGlitchCaptureSemantics(t *testing.T) {
	// Pipeline: in -> inv chain (3 deep) -> r. A value change needs
	// 3*14 ps to settle; glitching the capture below that latches the
	// stale value.
	nl := netlist.New(16)
	in := nl.AddInput("in")
	g1 := nl.AddGate(netlist.Inv, in)
	g2 := nl.AddGate(netlist.Inv, g1)
	g3 := nl.AddGate(netlist.Inv, g2)
	r := nl.AddDFF(g3, "r", false)
	fast := nl.AddDFF(in, "fast", false) // zero-logic path
	dm := timingsim.DefaultDelayModel()
	sim, err := timingsim.New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	// Previous cycle: in=0; glitched cycle: in=1 (all inv outputs flip).
	prev := map[netlist.NodeID]bool{in: false, g1: true, g2: false, g3: true}
	cur := map[netlist.NodeID]bool{in: true, g1: false, g2: true, g3: false}
	pf := func(id netlist.NodeID) bool { return prev[id] }
	cf := func(id netlist.NodeID) bool { return cur[id] }

	// Capture at full period: everything settled, nothing flips.
	if got := sim.GlitchCapture(pf, cf, dm.ClockPeriod); len(got) != 0 {
		t.Fatalf("unglitched capture flipped %v", got)
	}
	// Capture right after the sources switch: both regs unsettled...
	got := sim.GlitchCapture(pf, cf, dm.Setup/2)
	if len(got) != 2 {
		t.Fatalf("deep glitch flipped %v, want both", got)
	}
	// Capture between the fast path (0 ps) and the slow path (42 ps):
	// only the deep register flips. Deadline = glitchTime - setup.
	mid := 3*dm.CellDelay[netlist.Inv] - 1 + dm.Setup
	got = sim.GlitchCapture(pf, cf, mid)
	if len(got) != 1 || got[0] != r {
		t.Fatalf("mid glitch flipped %v, want [%d]", got, r)
	}
	_ = fast
	// Unchanged data never flips, no matter how deep the glitch.
	if got := sim.GlitchCapture(pf, pf, 0); len(got) != 0 {
		t.Fatalf("static cycle flipped %v", got)
	}
}

func TestGlitchCaptureRespectsClockGating(t *testing.T) {
	nl := netlist.New(16)
	in := nl.AddInput("in")
	en := nl.AddInput("en")
	g := nl.AddGate(netlist.Inv, in)
	r := nl.AddDFF(g, "r", false)
	nl.SetDFFEnable(r, en)
	dm := timingsim.DefaultDelayModel()
	sim, _ := timingsim.New(nl, dm)
	prev := map[netlist.NodeID]bool{in: false, g: true}
	curOn := map[netlist.NodeID]bool{in: true, g: false, en: true}
	curOff := map[netlist.NodeID]bool{in: true, g: false, en: false}
	at := func(m map[netlist.NodeID]bool) func(netlist.NodeID) bool {
		return func(id netlist.NodeID) bool { return m[id] }
	}
	if got := sim.GlitchCapture(at(prev), at(curOn), 1); len(got) != 1 {
		t.Fatalf("enabled reg not glitched: %v", got)
	}
	if got := sim.GlitchCapture(at(prev), at(curOff), 1); len(got) != 0 {
		t.Fatalf("gated-off reg glitched: %v", got)
	}
}

func TestSettleTime(t *testing.T) {
	nl := netlist.New(16)
	in := nl.AddInput("in")
	cur := in
	for i := 0; i < 5; i++ {
		cur = nl.AddGate(netlist.Inv, cur)
	}
	nl.AddDFF(cur, "r", false)
	dm := timingsim.DefaultDelayModel()
	sim, _ := timingsim.New(nl, dm)
	want := 5*dm.CellDelay[netlist.Inv] + dm.Setup
	if got := sim.SettleTime(); got != want {
		t.Fatalf("SettleTime = %v, want %v", got, want)
	}
}

func TestGlitchAttackSampling(t *testing.T) {
	tech := fault.DefaultClockGlitch()
	a, err := fault.NewGlitchAttack("g", 20, tech)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s := a.SampleNominal(rng)
		if s.T < 0 || s.T >= 20 {
			t.Fatalf("T = %d", s.T)
		}
		if s.Depth < 0 || s.Depth > tech.ClockPeriod {
			t.Fatalf("depth = %v", s.Depth)
		}
	}
	if _, err := fault.NewGlitchAttack("g", 0, tech); err == nil {
		t.Error("TRange 0 accepted")
	}
	if _, err := fault.NewGlitchAttack("g", 5, fault.ClockGlitch{}); err == nil {
		t.Error("zero clock period accepted")
	}
}

func TestGlitchCampaignEndToEnd(t *testing.T) {
	ev := evaluation(t)
	attack, err := fault.NewGlitchAttack("glitch", 50, fault.DefaultClockGlitch())
	if err != nil {
		t.Fatal(err)
	}
	c, err := ev.Engine.RunGlitchCampaign(context.Background(), attack, montecarlo.CampaignOptions{Samples: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := c.ClassCounts[0] + c.ClassCounts[1] + c.ClassCounts[2]
	if total != 3000 {
		t.Fatalf("class counts sum %d", total)
	}
	// A half-period glitch on a design with deep comparators must
	// disturb something in a substantial share of the cycles.
	if c.ClassCounts[montecarlo.Masked] == 3000 {
		t.Error("glitch campaign never latched a stale value")
	}
	t.Logf("glitch: SSF=%.5f successes=%d classes=%v", c.SSF(), c.Successes, c.ClassCounts)
}

// TestGlitchCampaignFoldsLikeCampaigns: glitch runs fold through the
// campaign accumulator with weight 1, so the weight moments, the
// per-t tallies and the tracked patterns fill as in any campaign.
func TestGlitchCampaignFoldsLikeCampaigns(t *testing.T) {
	ev := evaluation(t)
	attack, err := fault.NewGlitchAttack("glitch", 50, fault.DefaultClockGlitch())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	c, err := ev.Engine.RunGlitchCampaign(context.Background(), attack,
		montecarlo.CampaignOptions{Samples: n, Seed: 1, TrackPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	if ess := c.ESS(); ess != n {
		t.Errorf("ESS %v, want %d", ess, n)
	}
	draws, hits := 0, 0
	for i := range c.TDraws {
		draws += c.TDraws[i]
	}
	for i := range c.THits {
		hits += c.THits[i]
	}
	if draws != n || hits != c.Successes {
		t.Errorf("TDraws sum to %d, THits to %d; want %d and %d successes", draws, hits, n, c.Successes)
	}
	if c.ClassCounts[montecarlo.Masked] < n && len(c.Patterns) == 0 {
		t.Error("latched glitches tracked no pattern")
	}
}

func TestGlitchDeterministicDepthSweep(t *testing.T) {
	// A deeper glitch flips at least as many registers as a shallow
	// one at the same cycle.
	ev := evaluation(t)
	rng := rand.New(rand.NewSource(2))
	shallow := ev.Engine.RunGlitchOnce(rng, fault.GlitchSample{T: 1, Depth: 50})
	deep := ev.Engine.RunGlitchOnce(rng, fault.GlitchSample{T: 1, Depth: 500})
	if len(deep.Flipped) < len(shallow.Flipped) {
		t.Errorf("deeper glitch flipped fewer regs: %d vs %d", len(deep.Flipped), len(shallow.Flipped))
	}
}

func TestGlitchCampaignValidation(t *testing.T) {
	ev := evaluation(t)
	attack, _ := fault.NewGlitchAttack("glitch", 5000, fault.DefaultClockGlitch())
	if _, err := ev.Engine.RunGlitchCampaign(context.Background(), attack, montecarlo.CampaignOptions{Samples: 10}); err == nil {
		t.Error("oversized TRange accepted")
	}
	ok, _ := fault.NewGlitchAttack("glitch", 10, fault.DefaultClockGlitch())
	if _, err := ev.Engine.RunGlitchCampaign(context.Background(), ok, montecarlo.CampaignOptions{Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestMPUMeetsTiming(t *testing.T) {
	// Design-rule consistency: the zero-delay RTL abstraction is only
	// valid if every path settles within the cycle — the MPU's
	// longest path plus setup must fit the delay model's period.
	ev := evaluation(t)
	settle := ev.Engine.Timing.SettleTime()
	period := ev.Engine.Timing.ClockPeriod()
	if settle >= period {
		t.Fatalf("MPU settle time %.0f ps exceeds the %.0f ps clock period", settle, period)
	}
	t.Logf("settle %.0f ps, period %.0f ps (slack %.0f ps)", settle, period, period-settle)
}
