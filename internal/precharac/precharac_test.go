package precharac

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/soc"
)

func synthSoC(t *testing.T) *soc.SoC {
	t.Helper()
	cfg := soc.DefaultConfig()
	s, err := soc.New(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func smallOpts() Options {
	o := DefaultOptions()
	o.MaxDepth = 12
	o.TraceCycles = 512
	o.LifetimeCap = 60
	o.MemLifetimeMin = 40
	o.Probes = 1
	return o
}

// characterize once and share across tests; the campaign is the
// expensive part of this package's test suite.
var sharedChar *Characterization

func getChar(t *testing.T) (*Characterization, *soc.SoC) {
	t.Helper()
	s := synthSoC(t)
	if sharedChar == nil {
		c, err := Characterize(s, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		sharedChar = c
	}
	return sharedChar, s
}

func TestCharacterizeProducesCones(t *testing.T) {
	c, s := getChar(t)
	if c.Fanin.MaxDepth() != smallOpts().MaxDepth+1 {
		t.Fatalf("fanin depth = %d", c.Fanin.MaxDepth())
	}
	// The fanin cone at depth 1 must include the decision logic's
	// inputs: addr_r bits and config registers.
	addr := s.MPU.Groups["addr_r"]
	found := false
	for d := 1; d <= 2 && !found; d++ {
		found = c.Fanin.Contains(addr[0], d)
	}
	if !found {
		t.Error("addr_r not in responding-signal fanin cone")
	}
	// The access counter must NOT be in any cone: it never influences
	// the responding signal.
	cnt := s.MPU.Groups["access_cnt"][0]
	for d := 0; d < c.Fanin.MaxDepth(); d++ {
		if c.Fanin.Contains(cnt, d) {
			t.Error("access_cnt wrongly in fanin cone")
		}
	}
}

func TestConeReducesSampleSpace(t *testing.T) {
	c, s := getChar(t)
	total := len(s.MPU.Netlist.Regs())
	inCone := 0
	seen := map[netlist.NodeID]bool{}
	for _, layer := range c.Fanin.FilterRegs(s.MPU.Netlist) {
		for _, r := range layer {
			if !seen[r] {
				seen[r] = true
				inCone++
			}
		}
	}
	if inCone >= total {
		t.Fatalf("cone contains all %d registers; no reduction", total)
	}
	if inCone == 0 {
		t.Fatal("cone contains no registers")
	}
	t.Logf("registers: total %d, fanin cone %d", total, inCone)
}

func TestRegistersCharacterized(t *testing.T) {
	c, s := getChar(t)
	if len(c.Regs) == 0 {
		t.Fatal("no registers characterized")
	}
	for r, rc := range c.Regs {
		if rc.Lifetime < 0 || rc.Lifetime > float64(smallOpts().LifetimeCap) {
			t.Errorf("reg %d lifetime %v out of range", r, rc.Lifetime)
		}
		if rc.Contamination < 0 {
			t.Errorf("reg %d contamination %v negative", r, rc.Contamination)
		}
	}
	// Config registers of the disabled region 3 hold errors forever
	// without contaminating: archetypal memory-type.
	base3 := s.MPU.Groups["cfg_base3"]
	rc, ok := c.Regs[base3[7]]
	if !ok {
		t.Fatal("cfg_base3 not characterized (should be in cone)")
	}
	if !rc.MemoryType {
		t.Errorf("cfg_base3 bit: lifetime %.1f contam %.1f not memory-type", rc.Lifetime, rc.Contamination)
	}
	if rc.Lifetime < float64(smallOpts().MemLifetimeMin) {
		t.Errorf("disabled-region config lifetime %.1f too short", rc.Lifetime)
	}
}

func TestComputationRegsExist(t *testing.T) {
	c, s := getChar(t)
	comp := c.ComputationRegs()
	mem := c.MemoryRegs()
	if len(comp) == 0 {
		t.Fatal("no computation-type registers found")
	}
	if len(mem) == 0 {
		t.Fatal("no memory-type registers found")
	}
	// Paper: more than half of the registers are memory-type.
	if len(mem) <= len(comp) {
		t.Errorf("memory %d vs computation %d: expected memory-type majority", len(mem), len(comp))
	}
	// valid_r flips fabricate phantom requests (or suppress real
	// ones): whichever way the induced error goes, it must not be
	// classified memory-type.
	valid := s.MPU.Groups["valid_r"][0]
	if rc, ok := c.Regs[valid]; ok {
		if rc.MemoryType {
			t.Errorf("valid_r classified memory-type (lifetime %.1f, contam %.1f)", rc.Lifetime, rc.Contamination)
		}
	} else {
		t.Error("valid_r not characterized")
	}
	// viol_r feeds nothing inside the cones: its error is overwritten
	// at the next clock edge.
	viol := s.MPU.Groups["viol_r"][0]
	if rc, ok := c.Regs[viol]; ok {
		if rc.Lifetime > 3 {
			t.Errorf("viol_r lifetime %.1f, expected ~1", rc.Lifetime)
		}
	} else {
		t.Error("viol_r not characterized")
	}
	t.Logf("memory %d, computation %d", len(mem), len(comp))
}

func TestCorrelationBounds(t *testing.T) {
	c, s := getChar(t)
	nl := s.MPU.Netlist
	nonzero := 0
	for d := 0; d < c.Fanin.MaxDepth(); d++ {
		for _, g := range c.Fanin.ByDepth[d] {
			v := c.Corr(d, g)
			if v < 0 || v > 1 {
				t.Fatalf("Corr(%d, %d) = %v out of [0,1]", d, g, v)
			}
			if v > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Error("all correlations zero: synthetic benchmark never toggles the responding signal?")
	}
	_ = nl
}

func TestRespondingSignalSelfCorrelation(t *testing.T) {
	c, _ := getChar(t)
	// At depth 0 the responding signal correlates perfectly with
	// itself (shift 0).
	rs := c.Responding[0]
	if got := c.Corr(0, rs); got != 1.0 {
		t.Errorf("self correlation = %v, want 1", got)
	}
}

func TestLifetimeAccessors(t *testing.T) {
	c, s := getChar(t)
	// A comb gate's lifetime is the max over the registers latching
	// it; gates feeding config registers inherit the config lifetime.
	nl := s.MPU.Netlist
	anyPos := false
	for _, layer := range c.Fanin.ByDepth {
		for _, g := range layer {
			if nl.Node(g).Type.IsCombinational() && c.Lifetime(g) > 0 {
				anyPos = true
			}
		}
	}
	if !anyPos {
		t.Error("no comb gate has positive effective lifetime")
	}
	// Unknown node: 0.
	if c.Lifetime(netlist.NodeID(c.numNodes-1)) < 0 {
		t.Error("Lifetime must be non-negative")
	}
}

func TestFaninRegLayers(t *testing.T) {
	c, s := getChar(t)
	nl := s.MPU.Netlist
	all := c.FaninRegsByDepth(nl)
	comp := c.FaninCompRegsByDepth(nl)
	if len(all) != len(comp) {
		t.Fatal("layer counts differ")
	}
	for d := range all {
		if len(comp[d]) > len(all[d]) {
			t.Fatalf("depth %d: comp regs %d > all regs %d", d, len(comp[d]), len(all[d]))
		}
	}
	// Deeper layers should retain config registers (they persist
	// across unrolling), so the all-reg count stays roughly flat
	// while comp regs drop off.
	if len(all[smallOpts().MaxDepth]) == 0 {
		t.Error("deep fanin layer empty")
	}
}

// TestCharacterizeRunsBenchmarkOnce: the trace and every probe's window
// come from one run of the synthetic benchmark from reset, so the SoC
// ends max(TraceCycles, last probe + LifetimeCap) cycles in.
func TestCharacterizeRunsBenchmarkOnce(t *testing.T) {
	long := smallOpts()
	long.TraceCycles, long.Probes, long.LifetimeCap = 256, 4, 200
	for _, tc := range []struct {
		opts   Options
		cycles int
	}{
		{DefaultOptions(), 1024}, // probes 64 and 544 end at 744
		{long, 64 + 3*48 + 200},  // probes 48 cycles apart end past the trace
	} {
		s := synthSoC(t)
		if _, err := Characterize(s, tc.opts); err != nil {
			t.Fatal(err)
		}
		if s.Cycle() != tc.cycles {
			t.Errorf("%+v: SoC ran %d cycles, want %d", tc.opts, s.Cycle(), tc.cycles)
		}
	}
}

func TestCharacterizeRejectsBadOptions(t *testing.T) {
	s := synthSoC(t)
	bad := smallOpts()
	bad.MaxDepth = 0
	if _, err := Characterize(s, bad); err == nil {
		t.Error("MaxDepth=0 accepted")
	}
	bad = smallOpts()
	bad.Probes = 0
	if _, err := Characterize(s, bad); err == nil {
		t.Error("Probes=0 accepted")
	}
}

// TestScalarAndParallelTracesAgree: the benchmark run's trace, which
// records the sources and recovers the gates 64 cycles at a time,
// equals the scalar RecordAll trace of the same synthetic run.
func TestScalarAndParallelTracesAgree(t *testing.T) {
	opts := smallOpts()
	opts.TraceCycles = 200
	c, _ := getChar(t)
	s := synthSoC(t)
	rp := newLaneReplay(s.Sim.Fork(), coneRegsOf(c, s.MPU.Netlist), opts.LifetimeCap)
	parallel, _ := runBenchmark(s, opts, rp)

	s = synthSoC(t)
	nl := s.MPU.Netlist
	scalar := logicsim.NewTrace(nl, opts.TraceCycles)
	s.Reset()
	for cyc := 0; cyc < opts.TraceCycles; cyc++ {
		s.StepInject(func(func(netlist.NodeID) bool) []netlist.NodeID {
			scalar.RecordAll(s.Sim, cyc)
			return nil
		})
	}
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		a, b := parallel.ValueBits(id), scalar.ValueBits(id)
		for w := range a {
			if a[w] != b[w] {
				t.Fatalf("node %d (%s) word %d: parallel %x scalar %x", i, nl.Node(id).Name, w, a[w], b[w])
			}
		}
	}
}

// andPopcountShiftDown counts bits where a[c] and b[c+shift] are both
// set (b shifted down towards cycle 0). With andPopcountShiftUp it is
// the word-by-word reference for the aligned signatures corrLayers
// ANDs against.
func andPopcountShiftDown(a, b []uint64, shift int) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & extractShifted(b, w, shift))
	}
	return n
}

// andPopcountShiftUp counts bits where a[c] and b[c-shift] are both set.
func andPopcountShiftUp(a, b []uint64, shift int) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & extractShifted(b, w, -shift))
	}
	return n
}

func TestBitsetShiftHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(3)
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()
			b[i] = rng.Uint64()
		}
		bitAt := func(w []uint64, c int) bool {
			if c < 0 || c >= len(w)*64 {
				return false
			}
			return w[c/64]>>uint(c%64)&1 == 1
		}
		for _, shift := range []int{0, 1, 5, 63, 64, 65, 130} {
			wantDown, wantUp := 0, 0
			for c := 0; c < n*64; c++ {
				if bitAt(a, c) && bitAt(b, c+shift) {
					wantDown++
				}
				if bitAt(a, c) && bitAt(b, c-shift) {
					wantUp++
				}
			}
			if got := andPopcountShiftDown(a, b, shift); got != wantDown {
				t.Fatalf("shiftDown(%d) = %d, want %d", shift, got, wantDown)
			}
			if got := andPopcountShiftUp(a, b, shift); got != wantUp {
				t.Fatalf("shiftUp(%d) = %d, want %d", shift, got, wantUp)
			}
		}
	}
}

func TestPaperCorrelationExample(t *testing.T) {
	// Figure 3 of the paper: verify the Corr computation on the
	// published example signatures.
	// ss(rs) = 01001101, ss(g1) = 00101101 (cycle 0 = leftmost bit in
	// the paper's notation; our bitsets are cycle 0 = bit 0, so the
	// strings are reversed when packed).
	pack := func(s string) []uint64 {
		var w uint64
		for i, ch := range s { // s[0] is cycle 0
			if ch == '1' {
				w |= 1 << uint(i)
			}
		}
		return []uint64{w}
	}
	// Reverse the paper's left-to-right strings so index 0 is cycle 0.
	rev := func(s string) string {
		out := []byte(s)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return string(out)
	}
	rs := pack(rev("01001101"))
	g1 := pack(rev("00101101"))
	g2 := pack(rev("01100111"))
	g3 := pack(rev("01001111"))
	// Corr0(g1) = |g1 & rs| / |g1| = 3/4 (paper).
	if got := andPopcountShiftDown(g1, rs, 0); got != 3 {
		t.Errorf("g1 overlap = %d, want 3", got)
	}
	if popcount(g1) != 4 {
		t.Errorf("|g1| = %d, want 4", popcount(g1))
	}
	// Corr0(g2) = 3/5.
	if got := andPopcountShiftDown(g2, rs, 0); got != 3 {
		t.Errorf("g2 overlap = %d, want 3", got)
	}
	if popcount(g2) != 5 {
		t.Errorf("|g2| = %d, want 5", popcount(g2))
	}
	// Corr1(g3) = |g3 & (rs << 1)| / |g3| = 2/5: g3 is one unroll
	// earlier, its flips at cycle c pair with rs flips at cycle c+1.
	if got := andPopcountShiftDown(g3, rs, 1); got != 2 {
		t.Errorf("g3 overlap = %d, want 2", got)
	}
	if popcount(g3) != 5 {
		t.Errorf("|g3| = %d, want 5", popcount(g3))
	}
}

// TestNodeTablesMatchRegs checks the dense per-node tables behind
// Lifetime and MemoryType against their sources: for every node, the
// register's own characterization when it has one, otherwise the comb
// lifetime and not memory-type; IDs outside the netlist report 0 and
// false.
func TestNodeTablesMatchRegs(t *testing.T) {
	c, _ := getChar(t)
	mem := 0
	for id := netlist.NodeID(-2); id < netlist.NodeID(c.numNodes+2); id++ {
		wantLife, wantMem := 0.0, false
		if rc, ok := c.Regs[id]; ok {
			wantLife, wantMem = rc.Lifetime, rc.MemoryType
		} else if id >= 0 && int(id) < len(c.combLife) {
			wantLife = c.combLife[id]
		}
		if got := c.Lifetime(id); got != wantLife {
			t.Errorf("node %d: Lifetime %v, want %v", id, got, wantLife)
		}
		if got := c.MemoryType(id); got != wantMem {
			t.Errorf("node %d: MemoryType %v, want %v", id, got, wantMem)
		}
		if wantMem {
			mem++
		}
	}
	if mem == 0 || mem == len(c.Regs) {
		t.Errorf("%d of %d registers memory-type: the check cannot tell the tables apart", mem, len(c.Regs))
	}
}
