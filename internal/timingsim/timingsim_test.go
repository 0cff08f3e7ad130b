package timingsim

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netlist"
)

// constValues returns a values function reading from a map (default 0).
func constValues(m map[netlist.NodeID]bool) func(netlist.NodeID) bool {
	return func(id netlist.NodeID) bool { return m[id] }
}

func TestStrikeLatchesWhenWindowCovered(t *testing.T) {
	nl := netlist.New(8)
	a := nl.AddInput("a")
	g := nl.AddGate(netlist.Buf, a)
	r := nl.AddDFF(g, "r", false)
	dm := DefaultDelayModel()
	sim, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	// A pulse starting before the setup window and ending after the
	// hold window is latched.
	res := sim.Inject(constValues(nil), Strike{
		Gates: []netlist.NodeID{g},
		Time:  dm.ClockPeriod - dm.Setup - 30,
		Width: dm.Setup + dm.Hold + 60,
	})
	if len(res.FlippedRegs) != 1 || res.FlippedRegs[0] != r {
		t.Fatalf("FlippedRegs = %v, want [%d]", res.FlippedRegs, r)
	}
	if res.ReachedRegs != 1 || res.ActiveGates != 1 {
		t.Errorf("reach/active = %d/%d", res.ReachedRegs, res.ActiveGates)
	}
}

func TestStrikeMissesWindow(t *testing.T) {
	nl := netlist.New(8)
	a := nl.AddInput("a")
	g := nl.AddGate(netlist.Buf, a)
	nl.AddDFF(g, "r", false)
	dm := DefaultDelayModel()
	sim, _ := New(nl, dm)
	// Early pulse: temporally masked.
	res := sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{g}, Time: 0, Width: 100})
	if len(res.FlippedRegs) != 0 {
		t.Fatalf("early pulse latched: %v", res.FlippedRegs)
	}
	if res.ReachedRegs != 1 {
		t.Errorf("ReachedRegs = %d, want 1 (reached but not latched)", res.ReachedRegs)
	}
	// Pulse covering only part of the window: not latched.
	res = sim.Inject(constValues(nil), Strike{
		Gates: []netlist.NodeID{g},
		Time:  dm.ClockPeriod - dm.Setup + 5,
		Width: 100,
	})
	if len(res.FlippedRegs) != 0 {
		t.Fatalf("partial-window pulse latched: %v", res.FlippedRegs)
	}
}

func TestPropagationDelayAndAttenuation(t *testing.T) {
	nl := netlist.New(16)
	a := nl.AddInput("a")
	g1 := nl.AddGate(netlist.Buf, a)
	g2 := nl.AddGate(netlist.Buf, g1)
	nl.AddDFF(g2, "r", false)
	dm := DefaultDelayModel()
	sim, _ := New(nl, dm)
	sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{g1}, Time: 100, Width: 80})
	w := sim.Wave(g2)
	if len(w) != 1 {
		t.Fatalf("wave(g2) = %v", w)
	}
	wantStart := 100 + dm.CellDelay[netlist.Buf]
	wantEnd := wantStart + 80 - dm.Attenuation
	if math.Abs(w[0].Start-wantStart) > 1e-9 || math.Abs(w[0].End-wantEnd) > 1e-9 {
		t.Fatalf("wave(g2) = %v, want [%v, %v]", w, wantStart, wantEnd)
	}
}

func TestElectricalMaskingAbsorbsNarrowPulse(t *testing.T) {
	// A pulse just above MinPulse dies after enough gates.
	nl := netlist.New(64)
	a := nl.AddInput("a")
	cur := nl.AddGate(netlist.Buf, a)
	first := cur
	for i := 0; i < 10; i++ {
		cur = nl.AddGate(netlist.Buf, cur)
	}
	nl.AddDFF(cur, "r", false)
	dm := DefaultDelayModel()
	sim, _ := New(nl, dm)
	// Width 30: after (30-12)/6 = 3 attenuations it is below MinPulse.
	res := sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{first}, Time: 900, Width: 30})
	if res.ReachedRegs != 0 {
		t.Fatalf("narrow pulse survived the chain")
	}
	if res.ActiveGates < 2 || res.ActiveGates > 5 {
		t.Fatalf("ActiveGates = %d, want a handful", res.ActiveGates)
	}
	// A wide pulse survives all 10 stages.
	res = sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{first}, Time: 900, Width: 200})
	if res.ReachedRegs != 1 {
		t.Fatal("wide pulse did not survive")
	}
}

func TestSubMinimumStrikeIgnored(t *testing.T) {
	nl := netlist.New(8)
	a := nl.AddInput("a")
	g := nl.AddGate(netlist.Buf, a)
	nl.AddDFF(g, "r", false)
	sim, _ := New(nl, DefaultDelayModel())
	res := sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{g}, Time: 990, Width: 5})
	if res.ActiveGates != 0 || res.ReachedRegs != 0 {
		t.Fatalf("sub-minimum pulse had effect: %+v", res)
	}
}

func TestLogicalMaskingAtAND(t *testing.T) {
	nl := netlist.New(16)
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	gb := nl.AddGate(netlist.Buf, a)
	gand := nl.AddGate(netlist.And, gb, b)
	nl.AddDFF(gand, "r", false)
	sim, _ := New(nl, DefaultDelayModel())
	strike := Strike{Gates: []netlist.NodeID{gb}, Time: 900, Width: 150}
	// Side input 0: AND output stuck at 0 regardless of the pulse.
	res := sim.Inject(constValues(map[netlist.NodeID]bool{a: true, b: false}), strike)
	if res.ReachedRegs != 0 {
		t.Fatal("pulse passed a non-sensitized AND")
	}
	// Side input 1: pulse propagates.
	res = sim.Inject(constValues(map[netlist.NodeID]bool{a: true, b: true}), strike)
	if res.ReachedRegs != 1 {
		t.Fatal("pulse blocked by a sensitized AND")
	}
}

func TestReconvergentCancellationAtXOR(t *testing.T) {
	nl := netlist.New(16)
	a := nl.AddInput("a")
	g1 := nl.AddGate(netlist.Buf, a)
	g2 := nl.AddGate(netlist.Buf, a)
	gx := nl.AddGate(netlist.Xor, g1, g2)
	nl.AddDFF(gx, "r", false)
	sim, _ := New(nl, DefaultDelayModel())
	// Identical pulses on both XOR inputs cancel exactly.
	res := sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{g1, g2}, Time: 900, Width: 100})
	if len(sim.Wave(gx)) != 0 {
		t.Fatalf("XOR of identical flips should cancel, got %v", sim.Wave(gx))
	}
	if res.ReachedRegs != 0 {
		t.Fatal("cancelled pulse reached register")
	}
}

func TestPartialOverlapAtXOR(t *testing.T) {
	nl := netlist.New(16)
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g1 := nl.AddGate(netlist.Buf, a)
	g2 := nl.AddGate(netlist.Buf, b)
	gx := nl.AddGate(netlist.Xor, g1, g2)
	dm := DefaultDelayModel()
	sim, _ := New(nl, dm)
	// Two strikes cannot be expressed in one Strike with different
	// times, so strike g1 and inject g2's pulse by a second call is
	// not possible either — instead use one strike on both gates and
	// verify union semantics at an OR-like sensitized AND below; here
	// verify the sweep on overlapping but distinct widths via
	// different path delays: strike a's buf only, plus b's buf only,
	// through two Inject calls checking waveform shape.
	sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{g1}, Time: 100, Width: 80})
	w := sim.Wave(gx)
	if len(w) != 1 {
		t.Fatalf("wave = %v", w)
	}
	wantStart := 100 + dm.CellDelay[netlist.Xor]
	if math.Abs(w[0].Start-wantStart) > 1e-9 {
		t.Fatalf("XOR pulse start %v, want %v", w[0].Start, wantStart)
	}
}

func TestBothANDInputsFlipped(t *testing.T) {
	nl := netlist.New(16)
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g1 := nl.AddGate(netlist.Buf, a)
	g2 := nl.AddGate(netlist.Buf, b)
	gand := nl.AddGate(netlist.And, g1, g2)
	sim, _ := New(nl, DefaultDelayModel())
	vals := constValues(map[netlist.NodeID]bool{a: true, b: true})
	sim.Inject(vals, Strike{Gates: []netlist.NodeID{g1, g2}, Time: 500, Width: 60})
	// Nominal out = 1; with both inputs flipped to 0, out = 0: one
	// merged interval.
	w := sim.Wave(gand)
	if len(w) != 1 {
		t.Fatalf("wave(AND) = %v", w)
	}
}

func TestStrikeOnRegisterOrConstIgnored(t *testing.T) {
	nl := netlist.New(8)
	a := nl.AddInput("a")
	c := nl.AddConst(true)
	g := nl.AddGate(netlist.And, a, c)
	r := nl.AddDFF(g, "r", false)
	sim, _ := New(nl, DefaultDelayModel())
	res := sim.Inject(constValues(nil), Strike{Gates: []netlist.NodeID{r, c, a}, Time: 900, Width: 100})
	if res.ActiveGates != 0 {
		t.Fatalf("strike on non-gate nodes produced activity: %+v", res)
	}
}

// TestStrikeWidthsMustMatchGates requires every entry point to reject a
// Widths slice that is not parallel to Gates with the same panic, also
// InjectPruned on a strike its latch bound rejects (the deposit ends
// long before the latching window) and before the bound reads a width.
func TestStrikeWidthsMustMatchGates(t *testing.T) {
	nl := netlist.New(8)
	a := nl.AddInput("a")
	g := nl.AddGate(netlist.Buf, a)
	h := nl.AddGate(netlist.Inv, a)
	nl.AddDFF(nl.AddGate(netlist.And, g, h), "r", false)
	sim, err := New(nl, DefaultDelayModel())
	if err != nil {
		t.Fatal(err)
	}
	values := constValues(map[netlist.NodeID]bool{h: true})
	vb := valueBits(values, nl.NumNodes())
	ct := sim.CycleTables([][]uint64{vb})[0]
	for _, st := range []Strike{
		{Gates: []netlist.NodeID{g}, Time: 0, Width: 50, Widths: []float64{50, 50}},
		{Gates: []netlist.NodeID{g, h}, Time: 0, Width: 50, Widths: []float64{50}},
	} {
		want := fmt.Sprintf("timingsim: %d widths for %d gates", len(st.Widths), len(st.Gates))
		for name, run := range map[string]func(){
			"Inject":       func() { sim.Inject(values, st) },
			"InjectBits":   func() { sim.InjectBits(vb, st) },
			"InjectPruned": func() { sim.InjectPruned(ct, st) },
		} {
			if got := panicValue(run); got != want {
				t.Errorf("%s with %d widths for %d gates: panic %q, want %q", name, len(st.Widths), len(st.Gates), got, want)
			}
		}
	}
}

// panicValue runs f and returns what it panicked with, formatted, or
// "" when it returned normally.
func panicValue(f func()) (v string) {
	defer func() {
		if r := recover(); r != nil {
			v = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestInjectIsReentrant(t *testing.T) {
	nl := netlist.New(8)
	a := nl.AddInput("a")
	g := nl.AddGate(netlist.Buf, a)
	nl.AddDFF(g, "r", false)
	sim, _ := New(nl, DefaultDelayModel())
	s := Strike{Gates: []netlist.NodeID{g}, Time: 940, Width: 100}
	r1 := sim.Inject(constValues(nil), s)
	r2 := sim.Inject(constValues(nil), s)
	if len(r1.FlippedRegs) != len(r2.FlippedRegs) || r1.ActiveGates != r2.ActiveGates {
		t.Fatalf("results differ across calls: %+v vs %+v", r1, r2)
	}
}

func TestXorIntervalsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randSet := func() []Interval {
		var out []Interval
		t0 := 0.0
		for i := 0; i < rng.Intn(5); i++ {
			t0 += 1 + rng.Float64()*10
			w := 1 + rng.Float64()*5
			out = append(out, Interval{t0, t0 + w})
			t0 += w
		}
		return out
	}
	coveredAt := func(w []Interval, t float64) bool { return covered(w, t) }
	for trial := 0; trial < 200; trial++ {
		a, b := randSet(), randSet()
		x := xorIntervals(a, b)
		// Pointwise check on a fine grid.
		for t0 := 0.0; t0 < 80; t0 += 0.37 {
			want := coveredAt(a, t0) != coveredAt(b, t0)
			if got := coveredAt(x, t0); got != want {
				t.Fatalf("trial %d: xor mismatch at %v", trial, t0)
			}
		}
		// Self-inverse.
		if y := xorIntervals(a, a); len(y) != 0 {
			t.Fatalf("a xor a = %v", y)
		}
		// Sortedness and disjointness of output.
		if !sort.SliceIsSorted(x, func(i, j int) bool { return x[i].Start < x[j].Start }) {
			t.Fatal("xor output not sorted")
		}
		for i := 1; i < len(x); i++ {
			if x[i].Start < x[i-1].End {
				t.Fatal("xor output overlaps")
			}
		}
	}
}

func TestNewRejectsBadModel(t *testing.T) {
	nl := netlist.New(2)
	nl.AddInput("a")
	dm := DefaultDelayModel()
	dm.ClockPeriod = 0
	if _, err := New(nl, dm); err == nil {
		t.Fatal("accepted zero clock period")
	}
}

func TestPatternClassification(t *testing.T) {
	groups := map[string][]netlist.NodeID{
		"rega": {10, 11, 12, 13, 14, 15, 16, 17, 20, 21, 22, 23, 24, 25, 26, 27}, // 16 bits = 2 bytes
		"regb": {30, 31, 32, 33},
	}
	l := NewRegisterLayout(groups)
	cases := []struct {
		flipped []netlist.NodeID
		want    PatternClass
	}{
		{nil, NoError},
		{[]netlist.NodeID{10}, SingleBit},
		{[]netlist.NodeID{10, 13}, SingleByte},         // both in byte 0 of rega
		{[]netlist.NodeID{10, 20}, MultiByte},          // bytes 0 and 1 of rega
		{[]netlist.NodeID{10, 30}, MultiByte},          // different registers
		{[]netlist.NodeID{30, 31, 32, 33}, SingleByte}, // regb is one 4-bit byte
		{[]netlist.NodeID{99}, SingleBit},              // unknown node
		{[]netlist.NodeID{98, 99}, MultiByte},          // two unknown nodes
	}
	for i, c := range cases {
		if got := l.Classify(c.flipped); got != c.want {
			t.Errorf("case %d: Classify(%v) = %v, want %v", i, c.flipped, got, c.want)
		}
	}
}

func TestFullByteDetection(t *testing.T) {
	groups := map[string][]netlist.NodeID{
		"r": {10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
	}
	l := NewRegisterLayout(groups)
	full := []netlist.NodeID{10, 11, 12, 13, 14, 15, 16, 17}
	if !l.FullByte(full, groups) {
		t.Error("full byte 0 not detected")
	}
	if l.FullByte(full[:7], groups) {
		t.Error("7 of 8 bits misreported as full byte")
	}
	// Trailing partial byte (bits 8..9) counts as full when both flip.
	if !l.FullByte([]netlist.NodeID{18, 19}, groups) {
		t.Error("full trailing partial-byte not detected")
	}
}

func TestPatternKey(t *testing.T) {
	if PatternKey(nil) != "" {
		t.Error("empty key")
	}
	a := PatternKey([]netlist.NodeID{3, 1, 2})
	b := PatternKey([]netlist.NodeID{2, 3, 1})
	if a != b || a != "1,2,3" {
		t.Errorf("keys: %q vs %q", a, b)
	}
}

func TestPatternClassString(t *testing.T) {
	if SingleBit.String() != "single-bit" || MultiByte.String() != "multi-byte" {
		t.Error("String() wrong")
	}
	if PatternClass(9).String() == "" {
		t.Error("unknown class should format")
	}
}

// fractionalDelayModel is the default model with every delay and the
// attenuation moved off the integers, so path sums are values float32
// cannot hold.
func fractionalDelayModel() DelayModel {
	dm := DefaultDelayModel()
	dm.CellDelay = maps.Clone(dm.CellDelay)
	for typ, d := range dm.CellDelay {
		dm.CellDelay[typ] = d + 0.1
	}
	dm.Attenuation = 6.03
	return dm
}

// TestSpotBoundRoundsOutward checks the float32 rounding of spot
// records: slack rounds up and arrival down to the nearest float32, and
// a value float32 holds stays as it is. Records of random gate sets on
// random designs under a fractional delay model must bound every
// gate's slack from above and its arrival from below, and must be the
// nearest float32 that does.
func TestSpotBoundRoundsOutward(t *testing.T) {
	inf := math.Inf(1)
	tight := func(label string, got float32, x float64, up bool) {
		t.Helper()
		switch {
		case up && float64(got) < x, !up && float64(got) > x:
			t.Fatalf("%s: %v rounded inward to %v", label, x, got)
		case float64(got) == x:
		case up && float64(math.Nextafter32(got, float32(-inf))) >= x,
			!up && float64(math.Nextafter32(got, float32(inf))) <= x:
			t.Fatalf("%s: %v rounded to %v, past the nearest float32", label, x, got)
		}
	}
	for _, x := range []float64{0, 2, -3.5, 0.1, -0.1, 1.0 / 3, 600.1, 1e-45, -1e-300, inf, -inf} {
		tight("slack", float32Up(x), x, true)
		tight("arrival", float32Down(x), x, false)
	}
	rng := rand.New(rand.NewSource(7))
	dm := fractionalDelayModel()
	inexact := 0
	for design := 0; design < 4; design++ {
		nl := buildRandomDesign(rng)
		sim, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		ct := sim.CycleTables([][]uint64{valueBits(randomValues(rng, nl.NumNodes()), nl.NumNodes())})[0]
		for trial := 0; trial < 200; trial++ {
			set := make([]netlist.NodeID, 1+rng.Intn(8))
			for i := range set {
				set[i] = netlist.NodeID(rng.Intn(nl.NumNodes()))
			}
			sb := ct.SpotBound(set)
			for cl := range sb.Slack {
				slack, arrival := -inf, inf
				for _, g := range set {
					slack = max(slack, ct.bound[g].slack[cl])
					arrival = min(arrival, ct.bound[g].arrival[cl])
				}
				tight("record slack", sb.Slack[cl], slack, true)
				tight("record arrival", sb.Arrival[cl], arrival, false)
				if float64(sb.Slack[cl]) != slack || float64(sb.Arrival[cl]) != arrival {
					inexact++
				}
			}
		}
	}
	if inexact == 0 {
		t.Fatal("no record needed rounding")
	}
}
