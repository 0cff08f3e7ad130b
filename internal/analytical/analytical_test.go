package analytical

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/soc"
)

func buildSoC(t *testing.T) (*soc.SoC, *Evaluator) {
	t.Helper()
	cfg := soc.DefaultConfig()
	s, err := soc.New(cfg, soc.IllegalWriteProgram(8, cfg.DMABase, cfg.DMALimit))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(s.MPU)
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

func TestRegionAllows(t *testing.T) {
	r := Region{Base: 0x100, Limit: 0x1FF, Perm: soc.PermEnable | soc.PermUserRead}
	cases := []struct {
		addr  uint16
		write bool
		want  bool
	}{
		{0x100, false, true},
		{0x1FF, false, true},
		{0x0FF, false, false},
		{0x200, false, false},
		{0x150, true, false}, // no write permission
	}
	for i, c := range cases {
		if got := r.Allows(c.addr, c.write); got != c.want {
			t.Errorf("case %d: Allows(%#x, %v) = %v", i, c.addr, c.write, got)
		}
	}
	// Disabled region allows nothing.
	r.Perm = soc.PermUserRead | soc.PermUserWrite
	if r.Allows(0x150, false) {
		t.Error("disabled region allowed access")
	}
}

func TestPolicyUserAllowedAndRange(t *testing.T) {
	p := Policy{
		{Base: 0x100, Limit: 0x1FF, Perm: soc.PermEnable | soc.PermUserRead | soc.PermUserWrite},
		{Base: 0x300, Limit: 0x33F, Perm: soc.PermEnable | soc.PermUserRead},
	}
	if !p.UserAllowed(0x150, true) || p.UserAllowed(0x310, true) {
		t.Error("UserAllowed wrong")
	}
	if !p.RangeAllowed(soc.AccessRange{Lo: 0x100, Hi: 0x1FF, Write: true}) {
		t.Error("in-region range rejected")
	}
	if p.RangeAllowed(soc.AccessRange{Lo: 0x1F0, Hi: 0x210, Write: false}) {
		t.Error("range crossing a gap accepted")
	}
}

func TestCurrentPolicyAfterSetup(t *testing.T) {
	s, e := buildSoC(t)
	s.Run(s.Cfg.MaxCycles)
	p := e.CurrentPolicy(s)
	if p[0].Base != soc.UserBase || p[0].Limit != soc.UserLimit {
		t.Errorf("region 0 = %+v", p[0])
	}
	if p[1].Base != soc.SecretBase || p[1].Perm&soc.PermUserWrite != 0 {
		t.Errorf("region 1 = %+v", p[1])
	}
	if p[3].Perm&soc.PermEnable != 0 {
		t.Error("region 3 should be disabled")
	}
	// The configured policy denies the illegal access and allows the
	// benchmark traffic.
	if p.UserAllowed(soc.SecretAddr, true) {
		t.Error("baseline policy allows the illegal write")
	}
	for _, ar := range s.Prog.PreAttack {
		if !p.RangeAllowed(ar) {
			t.Errorf("baseline policy denies legit range %+v", ar)
		}
	}
}

func TestCoversAndInert(t *testing.T) {
	s, e := buildSoC(t)
	cfgBit := s.MPU.Groups["cfg_limit0"][9]
	pendBit := s.MPU.Groups["viol_pending"][0]
	violBit := s.MPU.Groups["viol_r"][0]
	addrBit := s.MPU.Groups["addr_r"][0]
	if !e.Covers([]netlist.NodeID{cfgBit, pendBit}) {
		t.Error("config+inert flips should be covered")
	}
	if e.Covers([]netlist.NodeID{cfgBit, violBit}) {
		t.Error("viol_r flip wrongly covered")
	}
	if e.Covers([]netlist.NodeID{addrBit}) {
		t.Error("addr_r flip wrongly covered")
	}
	if !e.Inert(pendBit) || e.Inert(cfgBit) || e.Inert(violBit) {
		t.Error("Inert classification wrong")
	}
}

func TestFaultedFlipsBits(t *testing.T) {
	s, e := buildSoC(t)
	s.Run(s.Cfg.MaxCycles)
	base := e.CurrentPolicy(s)
	limitBit9 := s.MPU.Groups["cfg_limit0"][9]
	faulted := e.Faulted(base, []netlist.NodeID{limitBit9})
	if faulted[0].Limit != base[0].Limit^(1<<9) {
		t.Errorf("limit not flipped: %#x vs %#x", faulted[0].Limit, base[0].Limit)
	}
	// Base policy untouched.
	if base[0].Limit != soc.UserLimit {
		t.Error("Faulted mutated the base policy")
	}
	// Inert flips change nothing.
	same := e.Faulted(base, []netlist.NodeID{s.MPU.Groups["viol_pending"][0]})
	for i := range base {
		if same[i] != base[i] {
			t.Error("inert flip changed the policy")
		}
	}
}

func TestOutcomeCriticalBits(t *testing.T) {
	s, e := buildSoC(t)
	s.Run(s.Cfg.MaxCycles)
	base := e.CurrentPolicy(s)
	prog := s.Prog
	var window []soc.AccessEvent // empty: no traffic between Te and Tt

	// Extending region 0's limit over the secret enables the write.
	limitBit9 := s.MPU.Groups["cfg_limit0"][9]
	if !e.Outcome(base, prog, window, []netlist.NodeID{limitBit9}) {
		t.Error("limit0 bit 9 flip should bypass the policy")
	}
	// Granting user-write on the secret region enables it too.
	permWrite := s.MPU.Groups["cfg_perm1"][1]
	if !e.Outcome(base, prog, window, []netlist.NodeID{permWrite}) {
		t.Error("perm1 user-write flip should bypass the policy")
	}
	// A random low bit of region 1's base does not.
	baseBit := s.MPU.Groups["cfg_base1"][0]
	if e.Outcome(base, prog, window, []netlist.NodeID{baseBit}) {
		t.Error("base1 bit 0 flip should not bypass the policy")
	}
	// Inert flips never succeed.
	if e.Outcome(base, prog, window, []netlist.NodeID{s.MPU.Groups["fsm_state"][0]}) {
		t.Error("fsm flip misreported as success")
	}
}

func TestOutcomeRespectsWindowTraffic(t *testing.T) {
	s, e := buildSoC(t)
	s.Run(s.Cfg.MaxCycles)
	base := e.CurrentPolicy(s)
	prog := s.Prog
	// A flip set that enables the illegal write but also breaks the
	// user region: succeed with an empty window, fail when the window
	// contains a user access the faulted policy denies.
	permWrite := s.MPU.Groups["cfg_perm1"][1]
	base0Bit9 := s.MPU.Groups["cfg_base0"][9] // 0x100 -> 0x300: user region destroyed
	flips := []netlist.NodeID{permWrite, base0Bit9}
	if !e.Outcome(base, prog, nil, flips) {
		t.Fatal("expected success with empty window")
	}
	window := []soc.AccessEvent{{Cycle: 100, Addr: soc.UserBase + 2, Write: true}}
	if e.Outcome(base, prog, window, flips) {
		t.Error("broken legit traffic should abort the attack")
	}
	// DMA and privileged accesses in the window are ignored.
	window = []soc.AccessEvent{
		{Cycle: 100, Addr: soc.UserBase + 2, Write: true, DMA: true},
		{Cycle: 101, Addr: soc.UserBase + 3, Write: true, Priv: true},
	}
	if !e.Outcome(base, prog, window, flips) {
		t.Error("DMA/priv window traffic should not abort the attack")
	}
}

func TestOutcomeCoarseConservative(t *testing.T) {
	s, e := buildSoC(t)
	s.Run(s.Cfg.MaxCycles)
	base := e.CurrentPolicy(s)
	prog := s.Prog
	permWrite := s.MPU.Groups["cfg_perm1"][1]
	base0Bit3 := s.MPU.Groups["cfg_base0"][3] // 0x100 -> 0x108: denies only low addresses
	flips := []netlist.NodeID{permWrite, base0Bit3}
	// Coarse check: the full pre-attack range includes the denied
	// addresses, so it reports failure...
	if e.OutcomeCoarse(base, prog, flips) {
		t.Error("coarse outcome should be conservative here")
	}
	// ...while the exact window (only high addresses remain) reports
	// success.
	window := []soc.AccessEvent{{Cycle: 100, Addr: soc.UserBase + 9, Write: true}}
	if !e.Outcome(base, prog, window, flips) {
		t.Error("exact outcome should succeed")
	}
}

func TestMultiBitFaultCombination(t *testing.T) {
	s, e := buildSoC(t)
	s.Run(s.Cfg.MaxCycles)
	base := e.CurrentPolicy(s)
	prog := s.Prog
	// Enabling region 3 with perms but zero base/limit covers only
	// address 0 — fail; adding limit bits to cover the secret — succeed.
	perm3 := s.MPU.Groups["cfg_perm3"]
	enable := perm3[2]
	uwrite := perm3[1]
	if e.Outcome(base, prog, nil, []netlist.NodeID{enable, uwrite}) {
		t.Error("region3 [0,0] should not cover the secret")
	}
	limit3 := s.MPU.Groups["cfg_limit3"]
	flips := []netlist.NodeID{enable, uwrite, limit3[9], limit3[4]} // limit -> 0x210
	if !e.Outcome(base, prog, nil, flips) {
		t.Error("region3 [0, 0x210] user-writable should bypass")
	}
}

func TestNewRejectsForeignNetlist(t *testing.T) {
	// An MPU value with missing groups must be rejected.
	m := &soc.MPU{Config: soc.DefaultMPUConfig(), Groups: map[string][]netlist.NodeID{}}
	if _, err := New(m); err == nil {
		t.Error("MPU without register groups accepted")
	}
}

// TestFaultedMatchesFlippedSoC checks the evaluator's per-node tables
// against the SoC itself. For every MPU register alone and for random
// multi-flip sets, Faulted must equal the policy CurrentPolicy decodes
// once those bits are flipped in the simulator. Covers and Inert must
// agree with membership in the configuration and inert register
// groups, for every node and for IDs outside the netlist.
func TestFaultedMatchesFlippedSoC(t *testing.T) {
	s, e := buildSoC(t)
	s.Run(s.Cfg.MaxCycles)
	base := e.CurrentPolicy(s)
	regs := s.MPU.Netlist.Regs()
	check := func(flips []netlist.NodeID) {
		t.Helper()
		s.FlipRegsNow(flips)
		want := e.CurrentPolicy(s)
		s.FlipRegsNow(flips)
		if got := e.Faulted(base, flips); !slices.Equal(got, want) {
			t.Fatalf("flips %v: Faulted %+v, flipped SoC decodes %+v", flips, got, want)
		}
	}
	for _, r := range regs {
		check([]netlist.NodeID{r})
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		flips := make([]netlist.NodeID, 2+rng.Intn(7))
		for j := range flips {
			flips[j] = regs[rng.Intn(len(regs))]
		}
		check(flips)
	}

	cfg, inert := map[netlist.NodeID]bool{}, map[netlist.NodeID]bool{}
	for i := 0; i < s.MPU.Config.Regions; i++ {
		for _, name := range []string{"cfg_base%d", "cfg_limit%d", "cfg_perm%d"} {
			for _, id := range s.MPU.Groups[fmt.Sprintf(name, i)] {
				cfg[id] = true
			}
		}
	}
	for _, name := range []string{"viol_pending", "viol_addr_r", "fsm_state", "access_cnt", "dbg_addr", "dbg_sig", "lockdown"} {
		for _, id := range s.MPU.Groups[name] {
			inert[id] = true
		}
	}
	nn := s.MPU.Netlist.NumNodes()
	for id := netlist.NodeID(-2); id < netlist.NodeID(nn+2); id++ {
		if got := e.Inert(id); got != inert[id] {
			t.Errorf("node %d: Inert %v, group membership %v", id, got, inert[id])
		}
		if got, want := e.Covers([]netlist.NodeID{id}), cfg[id] || inert[id]; got != want {
			t.Errorf("node %d: Covers %v, group membership %v", id, got, want)
		}
	}
	if len(cfg) == 0 || len(inert) == 0 {
		t.Fatalf("%d configuration and %d inert bits: groups missing", len(cfg), len(inert))
	}
}
