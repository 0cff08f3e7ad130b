package fault

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/stats"
)

func testNetlist() (*netlist.Netlist, []netlist.NodeID) {
	nl := netlist.New(64)
	in := nl.AddInput("in")
	var gates []netlist.NodeID
	cur := in
	for i := 0; i < 30; i++ {
		cur = nl.AddGate(netlist.Inv, cur)
		gates = append(gates, cur)
	}
	return nl, gates
}

func TestNewAttackValidation(t *testing.T) {
	_, gates := testNetlist()
	tech := DefaultRadiation()
	if _, err := NewAttack("a", 0, tech, gates, nil); err == nil {
		t.Error("TRange 0 accepted")
	}
	if _, err := NewAttack("a", 10, tech, nil, nil); err == nil {
		t.Error("empty candidates accepted")
	}
	d, _ := stats.NewDiscrete([]float64{1, 2})
	if _, err := NewAttack("a", 10, tech, gates, d); err == nil {
		t.Error("mismatched center distribution accepted")
	}
	if _, err := NewAttack("a", 10, tech, []netlist.NodeID{gates[0], netlist.Invalid}, nil); err == nil {
		t.Error("invalid candidate accepted")
	}
	a, err := NewAttack("a", 10, tech, gates, nil)
	if err != nil {
		t.Fatalf("valid attack rejected: %v", err)
	}
	for i, g := range gates {
		if got := a.CandidateIndex(g); got != i {
			t.Errorf("CandidateIndex(%d) = %d, want %d", g, got, i)
		}
	}
	for _, id := range []netlist.NodeID{netlist.Invalid, slices.Max(gates) + 1} {
		if got := a.CandidateIndex(id); got != -1 {
			t.Errorf("CandidateIndex(%d) = %d for a non-candidate", id, got)
		}
	}
}

func TestSampleNominalRanges(t *testing.T) {
	_, gates := testNetlist()
	tech := DefaultRadiation()
	a, err := NewAttack("a", 25, tech, gates, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	inCand := map[netlist.NodeID]bool{}
	for _, g := range gates {
		inCand[g] = true
	}
	for i := 0; i < 2000; i++ {
		s := a.SampleNominal(rng)
		if s.T < 0 || s.T >= 25 {
			t.Fatalf("T = %d out of range", s.T)
		}
		if !inCand[s.Center] {
			t.Fatalf("center %d not a candidate", s.Center)
		}
		if s.Radius < tech.Radius-tech.RadiusJitter-1e-9 || s.Radius > tech.Radius+tech.RadiusJitter+1e-9 {
			t.Fatalf("radius %v out of range", s.Radius)
		}
		if s.Width < 0 || s.Width > tech.PulseWidth+tech.PulseJitter+1e-9 {
			t.Fatalf("width %v out of range", s.Width)
		}
		if s.Time < 0 || s.Time >= tech.ClockPeriod {
			t.Fatalf("time %v out of range", s.Time)
		}
	}
}

func TestDensityUniform(t *testing.T) {
	_, gates := testNetlist()
	a, _ := NewAttack("a", 10, DefaultRadiation(), gates, nil)
	s := Sample{T: 3, Center: gates[5]}
	want := (1.0 / 10) * (1.0 / float64(len(gates)))
	if got := a.Density(s); math.Abs(got-want) > 1e-15 {
		t.Errorf("density %v, want %v", got, want)
	}
	// Out-of-range timing distance has zero density.
	if a.Density(Sample{T: 10, Center: gates[0]}) != 0 {
		t.Error("T out of range should have density 0")
	}
	if a.Density(Sample{T: -1, Center: gates[0]}) != 0 {
		t.Error("negative T should have density 0")
	}
	// Non-candidate center has zero density.
	if a.Density(Sample{T: 0, Center: netlist.NodeID(0)}) != 0 {
		t.Error("non-candidate center should have density 0")
	}
}

func TestDensityWithCenterDist(t *testing.T) {
	_, gates := testNetlist()
	w := make([]float64, len(gates))
	for i := range w {
		w[i] = 1
	}
	w[3] = 7 // concentrate on gates[3]
	d, _ := stats.NewDiscrete(w)
	a, _ := NewAttack("a", 5, DefaultRadiation(), gates, d)
	got := a.CenterProb(gates[3])
	want := 7.0 / (float64(len(gates)-1) + 7)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CenterProb = %v, want %v", got, want)
	}
	// Sampling must follow the distribution.
	rng := rand.New(rand.NewSource(2))
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if a.SampleNominal(rng).Center == gates[3] {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-want) > 0.01 {
		t.Errorf("sampled frequency %v, want %v", float64(hits)/n, want)
	}
}

func TestStrikeUsesPlacementRadius(t *testing.T) {
	nl, gates := testNetlist()
	place := placement.Place(nl)
	a, _ := NewAttack("a", 5, DefaultRadiation(), gates, nil)
	s := Sample{T: 0, Center: gates[10], Radius: 0, Width: 100, Time: 50}
	strike := a.Strike(place, s)
	if len(strike.Gates) != 1 || strike.Gates[0] != gates[10] {
		t.Errorf("radius-0 strike gates = %v", strike.Gates)
	}
	if strike.Time != 50 || strike.Width != 100 {
		t.Error("strike time/width not forwarded")
	}
	s.Radius = 1e9
	strike = a.Strike(place, s)
	if len(strike.Gates) != len(gates) {
		t.Errorf("huge radius struck %d of %d gates", len(strike.Gates), len(gates))
	}
}

func TestSampleWidthNonNegative(t *testing.T) {
	tech := Radiation{PulseWidth: 10, PulseJitter: 50, ClockPeriod: 100}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if w := tech.SampleWidth(rng); w < 0 {
			t.Fatalf("negative width %v", w)
		}
	}
}

func TestConcentratedCenters(t *testing.T) {
	nl, gates := testNetlist()
	place := placement.Place(nl)
	target := gates[15]
	all := ConcentratedCenters(place, gates, target, 1.0)
	if len(all) != len(gates) {
		t.Fatalf("frac 1 returned %d of %d", len(all), len(gates))
	}
	half := ConcentratedCenters(place, gates, target, 0.5)
	if len(half) != len(gates)/2 {
		t.Fatalf("frac 0.5 returned %d", len(half))
	}
	// Every selected gate must be at least as close as every excluded
	// gate.
	sel := map[netlist.NodeID]bool{}
	maxSel := 0.0
	for _, g := range half {
		sel[g] = true
		if d := place.Dist(g, target); d > maxSel {
			maxSel = d
		}
	}
	for _, g := range gates {
		if !sel[g] && place.Dist(g, target) < maxSel-1e-9 {
			t.Fatalf("closer gate %d excluded", g)
		}
	}
	// Delta: single gate, the target itself.
	one := ConcentratedCenters(place, gates, target, 1e-9)
	if len(one) != 1 || one[0] != target {
		t.Fatalf("delta = %v, want [%d]", one, target)
	}
}
