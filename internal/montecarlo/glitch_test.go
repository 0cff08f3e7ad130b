package montecarlo_test

import (
	"math"
	"math/rand"
	"slices"
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

	// No glitch: everything settled, nothing flips.
	if got := sim.GlitchCapture(pf, cf, 0); len(got) != 0 {
		t.Fatalf("unglitched capture flipped %v", got)
	}
	// Capture right after the sources switch: both regs unsettled...
	got := sim.GlitchCapture(pf, cf, dm.ClockPeriod-dm.Setup/2)
	if len(got) != 2 {
		t.Fatalf("deep glitch flipped %v, want both", got)
	}
	// Capture between the fast path (0 ps) and the slow path (42 ps):
	// only the deep register flips. Deadline = capture edge - setup.
	mid := 3*dm.CellDelay[netlist.Inv] - 1 + dm.Setup
	got = sim.GlitchCapture(pf, cf, dm.ClockPeriod-mid)
	if len(got) != 1 || got[0] != r {
		t.Fatalf("mid glitch flipped %v, want [%d]", got, r)
	}
	// The thresholds, in register order, are the depths above which
	// each register flips.
	want := []float64{dm.ClockPeriod - dm.Setup - 3*dm.CellDelay[netlist.Inv], dm.ClockPeriod - dm.Setup}
	if th := sim.GlitchThresholds(pf, cf); !slices.Equal(nl.Regs(), []netlist.NodeID{r, fast}) || !slices.Equal(th, want) {
		t.Fatalf("thresholds %v of registers %v, want %v of [%d %d]", th, nl.Regs(), want, r, fast)
	}
	// Unchanged data never flips, no matter how deep the glitch.
	if got := sim.GlitchCapture(pf, pf, dm.ClockPeriod); len(got) != 0 {
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
	if got := sim.GlitchCapture(at(prev), at(curOn), dm.ClockPeriod-1); len(got) != 1 {
		t.Fatalf("enabled reg not glitched: %v", got)
	}
	if got := sim.GlitchCapture(at(prev), at(curOff), dm.ClockPeriod-1); len(got) != 0 {
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

// TestNewGlitchAttackValidation: a glitch attack needs a timing range,
// a positive finite clock period, a finite depth and a finite,
// non-negative jitter.
func TestNewGlitchAttackValidation(t *testing.T) {
	tech := fault.DefaultClockGlitch()
	if _, err := fault.NewGlitchAttack("g", 20, tech); err != nil {
		t.Fatal(err)
	}
	if _, err := fault.NewGlitchAttack("g", 0, tech); err == nil {
		t.Error("TRange 0 accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, bad := range map[string]fault.ClockGlitch{
		"zero clock period":     {},
		"NaN clock period":      {Depth: 300, ClockPeriod: nan},
		"infinite clock period": {Depth: 300, ClockPeriod: inf},
		"NaN depth":             {Depth: nan, DepthJitter: 150, ClockPeriod: 600},
		"infinite depth":        {Depth: -inf, DepthJitter: 150, ClockPeriod: 600},
		"negative jitter":       {Depth: 300, DepthJitter: -1, ClockPeriod: 600},
		"NaN jitter":            {Depth: 300, DepthJitter: nan, ClockPeriod: 600},
		"infinite jitter":       {Depth: 300, DepthJitter: inf, ClockPeriod: 600},
	} {
		if _, err := fault.NewGlitchAttack("g", 5, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestExactGlitchDefault pins the exact answer of the default glitch
// attack (300 ± 150 ps, TRange 50) on the memory-write benchmark: no
// piece succeeds, and 6 of its 56 pieces latch stale data, 1.40% of
// the mass.
func TestExactGlitchDefault(t *testing.T) {
	ev := evaluation(t)
	attack, err := fault.NewGlitchAttack("glitch", 50, fault.DefaultClockGlitch())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ev.Engine.ExactGlitch(attack)
	if err != nil {
		t.Fatal(err)
	}
	if ans.SSF != 0 || ans.Pieces != 56 || ans.Stale != 6 {
		t.Errorf("SSF %v over %d pieces, %d stale; want 0 over 56, 6 stale", ans.SSF, ans.Pieces, ans.Stale)
	}
	// Masked 0.98600, memory-only 0.00347, both 0.01053; the
	// memory-only mass splits into analytical 0.00200 and pruned 0.00147.
	for i, want := range []float64{0.986, 13.0 / 3750, 79.0 / 7500} {
		if got := ans.ClassMass[i]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%v mass %v, want %v", montecarlo.OutcomeClass(i), got, want)
		}
	}
	for i, want := range []float64{0.986, 0.002, 11.0 / 7500, 79.0 / 7500} {
		if got := ans.PathMass[i]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%v path mass %v, want %v", montecarlo.EvalPath(i), got, want)
		}
	}
	for name, m := range map[string][]float64{"class": ans.ClassMass[:], "path": ans.PathMass[:]} {
		sum := 0.0
		for _, x := range m {
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s masses sum to %v", name, sum)
		}
	}
}

// TestGlitchPiecesPredictFlips: on every timing distance, the register
// set RunGlitchOnce latches at each depth piece is the set whose
// threshold lies below the piece's depth, at the default depth, a
// deep one, and one clipped at the clock period (where a third of the
// mass is the point at 600 ps).
func TestGlitchPiecesPredictFlips(t *testing.T) {
	ev := evaluation(t)
	for _, depth := range []float64{300, 450, 550} {
		tech := fault.DefaultClockGlitch()
		tech.Depth = depth
		stale, atPeriod := 0, 0.0
		regs := ev.Engine.SoC.MPU.Netlist.Regs()
		for T := range 50 {
			th := ev.Engine.GlitchThresholds(T)
			for _, p := range tech.DepthPieces(th) {
				var want []netlist.NodeID
				for i, r := range regs {
					if p.Depth > th[i] {
						want = append(want, r)
					}
				}
				slices.Sort(want)
				res := ev.Engine.RunGlitchOnce(nil, fault.GlitchSample{T: T, Depth: p.Depth})
				if !slices.Equal(res.Flipped, want) {
					t.Fatalf("depth %v, T %d, piece at %v ps: flipped %v, thresholds predict %v", depth, T, p.Depth, res.Flipped, want)
				}
				if len(want) > 0 {
					stale++
				}
				if p.Depth == tech.ClockPeriod {
					atPeriod += p.Mass / 50
				}
			}
		}
		if stale == 0 {
			t.Errorf("depth %v: no piece latched stale data", depth)
		}
		if wantAt := max(depth+tech.DepthJitter-tech.ClockPeriod, 0) / (2 * tech.DepthJitter); math.Abs(atPeriod-wantAt) > 1e-12 {
			t.Errorf("depth %v: mass %v at the clock period, want %v", depth, atPeriod, wantAt)
		}
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

// TestExactGlitchValidation: a timing range that reaches into the MPU
// set-up and a hardened engine, whose suppression is random, are
// rejected.
func TestExactGlitchValidation(t *testing.T) {
	ev := evaluation(t)
	attack, _ := fault.NewGlitchAttack("glitch", 5000, fault.DefaultClockGlitch())
	if _, err := ev.Engine.ExactGlitch(attack); err == nil {
		t.Error("oversized TRange accepted")
	}
	ok, _ := fault.NewGlitchAttack("glitch", 10, fault.DefaultClockGlitch())
	hard, err := ev.Engine.Clone()
	if err != nil {
		t.Fatal(err)
	}
	hard.Hardened = map[netlist.NodeID]float64{ev.Engine.SoC.MPU.Netlist.Regs()[0]: 10}
	if _, err := hard.ExactGlitch(ok); err == nil {
		t.Error("hardened engine accepted")
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
