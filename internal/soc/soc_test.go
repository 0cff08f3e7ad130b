package soc

import (
	"slices"
	"testing"

	"repro/internal/netlist"
)

func defaultWrite(t *testing.T) *SoC {
	t.Helper()
	cfg := DefaultConfig()
	s, err := New(cfg, IllegalWriteProgram(20, cfg.DMABase, cfg.DMALimit))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultRead(t *testing.T) *SoC {
	t.Helper()
	cfg := DefaultConfig()
	s, err := New(cfg, IllegalReadProgram(20, cfg.DMABase, cfg.DMALimit))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMPUBuilds(t *testing.T) {
	m, err := BuildMPU(DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := netlist.ComputeStats(m.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registers < 150 || st.Registers > 250 {
		t.Errorf("register count %d outside expected range", st.Registers)
	}
	if st.CombGates < 500 {
		t.Errorf("gate count %d suspiciously small", st.CombGates)
	}
	if len(m.RespondingSignals) == 0 {
		t.Fatal("no responding signals")
	}
	for _, rs := range m.RespondingSignals {
		if m.Netlist.Node(rs).Type != netlist.DFF {
			t.Errorf("responding signal %d is not a register", rs)
		}
	}
}

func TestMPURejectsBadConfig(t *testing.T) {
	if _, err := BuildMPU(MPUConfig{Regions: 0, AddrBits: 16}); err == nil {
		t.Error("0 regions accepted")
	}
	if _, err := BuildMPU(MPUConfig{Regions: 4, AddrBits: 40}); err == nil {
		t.Error("40 address bits accepted")
	}
}

func TestGoldenIllegalWriteTraps(t *testing.T) {
	s := defaultWrite(t)
	s.Run(s.Cfg.MaxCycles)
	if !s.Done() {
		t.Fatalf("program did not halt in %d cycles (pc=%d)", s.Cycle(), s.PC())
	}
	if !s.Marked.Resolved {
		t.Fatal("marked access never resolved")
	}
	if s.Marked.Committed || !s.Marked.Trapped {
		t.Fatalf("golden outcome = %+v, want trapped & not committed", s.Marked)
	}
	if s.TrapCount != 1 {
		t.Errorf("TrapCount = %d, want 1", s.TrapCount)
	}
	if s.Mem[SecretAddr] != SecretValue {
		t.Errorf("secret corrupted in golden run: %#x", s.Mem[SecretAddr])
	}
	if s.AttackSucceeded() {
		t.Error("golden run reported attack success")
	}
	if s.Marked.DecisionCycle != s.Marked.IssueCycle+1 || s.Marked.RespCycle != s.Marked.IssueCycle+2 {
		t.Errorf("marked cycles inconsistent: %+v", s.Marked)
	}
}

func TestGoldenIllegalReadTraps(t *testing.T) {
	s := defaultRead(t)
	s.Run(s.Cfg.MaxCycles)
	if !s.Done() || !s.Marked.Resolved {
		t.Fatal("run incomplete")
	}
	if s.Marked.Committed || !s.Marked.Trapped {
		t.Fatalf("golden outcome = %+v", s.Marked)
	}
	// The secret must not have been exfiltrated.
	if s.Mem[UserBase+9] == SecretValue {
		t.Error("secret leaked in golden run")
	}
}

func TestLegitimateTrafficGranted(t *testing.T) {
	s := defaultWrite(t)
	s.Run(s.Cfg.MaxCycles)
	// The work loop wrote 0x1111-derived values into the user region.
	if s.Mem[UserBase] == 0 {
		t.Error("legitimate store did not commit")
	}
	if s.DMAViol != 0 {
		t.Errorf("DMA traffic violated %d times", s.DMAViol)
	}
	// Privileged seeding of the secret succeeded.
	if s.Mem[SecretAddr] != SecretValue {
		t.Errorf("privileged store blocked: %#x", s.Mem[SecretAddr])
	}
}

func TestAccessCounterCounts(t *testing.T) {
	s := defaultWrite(t)
	s.Run(s.Cfg.MaxCycles)
	cnt := s.Sim.ReadWord(s.MPU.Groups["access_cnt"])
	if cnt == 0 {
		t.Error("access counter never advanced")
	}
}

func TestDMAIssuesTraffic(t *testing.T) {
	cfg := DefaultConfig()
	withDMA, _ := New(cfg, IllegalWriteProgram(20, cfg.DMABase, cfg.DMALimit))
	withDMA.Run(cfg.MaxCycles)
	cntDMA := withDMA.Sim.ReadWord(withDMA.MPU.Groups["access_cnt"])

	cfg2 := cfg
	cfg2.DMAEnabled = false
	noDMA, _ := New(cfg2, IllegalWriteProgram(20, cfg.DMABase, cfg.DMALimit))
	noDMA.Run(cfg2.MaxCycles)
	cntNo := noDMA.Sim.ReadWord(noDMA.MPU.Groups["access_cnt"])
	if cntDMA <= cntNo {
		t.Errorf("DMA added no accesses: %d vs %d", cntDMA, cntNo)
	}
}

func TestCheckpointRestoreDeterministic(t *testing.T) {
	s := defaultWrite(t)
	for i := 0; i < 40; i++ {
		s.Step()
	}
	cp := s.Snapshot()
	s.Run(s.Cfg.MaxCycles)
	wantMarked := s.Marked
	wantTraps := s.TrapCount
	wantMem := append([]uint16(nil), s.Mem...)
	wantCycle := s.Cycle()

	s.Restore(cp)
	if s.Cycle() != 40 {
		t.Fatalf("restored cycle = %d", s.Cycle())
	}
	s.Run(s.Cfg.MaxCycles)
	if s.Marked != wantMarked || s.TrapCount != wantTraps || s.Cycle() != wantCycle {
		t.Fatalf("replay diverged: %+v vs %+v", s.Marked, wantMarked)
	}
	for i := range wantMem {
		if s.Mem[i] != wantMem[i] {
			t.Fatalf("memory diverged at %#x", i)
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s := defaultWrite(t)
	for i := 0; i < 10; i++ {
		s.Step()
	}
	cp := s.Snapshot()
	memBefore := cp.Mem[UserBase]
	s.Run(s.Cfg.MaxCycles)
	if cp.Mem[UserBase] != memBefore {
		t.Error("snapshot shares memory with live SoC")
	}
}

func TestPermFaultBypassesMPU(t *testing.T) {
	// Flipping the user-write permission bit of the secret region right
	// before the marked store's decision cycle must let the attack
	// through: this is the fundamental vulnerability the paper's SSF
	// quantifies.
	s := defaultWrite(t)
	for !s.Done() && s.Marked.IssueCycle == 0 {
		s.Step()
	}
	if s.Done() {
		t.Fatal("marked access never issued")
	}
	permBits := s.MPU.Groups["cfg_perm1"]
	s.FlipRegsNow([]netlist.NodeID{permBits[1]}) // user-write bit
	s.Run(s.Cfg.MaxCycles)
	if !s.AttackSucceeded() {
		t.Fatalf("perm fault did not bypass MPU: %+v", s.Marked)
	}
	if s.Mem[SecretAddr] != AttackValue {
		t.Errorf("secret not overwritten: %#x", s.Mem[SecretAddr])
	}
	if s.TrapCount != 0 {
		t.Errorf("trap fired despite bypass: %d", s.TrapCount)
	}
}

func TestAddrAliasFaultLeaksSecret(t *testing.T) {
	// Flipping bit 8 of the MPU's captured address (0x210 -> 0x310)
	// makes the check see the user-readable DMA region while the bus
	// still reads the secret: the read attack leaks SecretValue.
	s := defaultRead(t)
	for !s.Done() && s.Marked.IssueCycle == 0 {
		s.Step()
	}
	addrBits := s.MPU.Groups["addr_r"]
	s.FlipRegsNow([]netlist.NodeID{addrBits[8]})
	s.Run(s.Cfg.MaxCycles)
	if !s.AttackSucceeded() {
		t.Fatalf("alias fault did not bypass MPU: %+v", s.Marked)
	}
	if s.Mem[UserBase+9] != SecretValue {
		t.Errorf("secret not exfiltrated: %#x", s.Mem[UserBase+9])
	}
}

func TestValidFaultCausesSilentDenial(t *testing.T) {
	// Flipping valid_r kills the request: no grant, no violation —
	// the attack fails without a trap.
	s := defaultWrite(t)
	for !s.Done() && s.Marked.IssueCycle == 0 {
		s.Step()
	}
	s.FlipRegsNow(s.MPU.Groups["valid_r"])
	s.Run(s.Cfg.MaxCycles)
	if !s.Marked.Resolved {
		t.Fatal("marked access unresolved")
	}
	if s.Marked.Committed || s.Marked.Trapped {
		t.Fatalf("outcome = %+v, want silent denial", s.Marked)
	}
	if s.AttackSucceeded() {
		t.Error("silent denial misreported as success")
	}
}

func TestViolRegFaultSuppressesTrapOnly(t *testing.T) {
	// Flip viol_r after the decision latched: the trap is suppressed
	// but grant stays low, so the write still does not commit.
	s := defaultWrite(t)
	for !s.Done() && s.Marked.IssueCycle == 0 {
		s.Step()
	}
	s.Step() // decision cycle: viol_r latches at its end
	s.FlipRegsNow(s.MPU.Groups["viol_r"])
	s.Run(s.Cfg.MaxCycles)
	if s.Marked.Trapped {
		t.Fatal("trap fired despite suppressed viol_r")
	}
	if s.Marked.Committed || s.AttackSucceeded() {
		t.Fatal("suppressing viol_r alone should not commit the write")
	}
	if s.TrapCount != 0 {
		t.Errorf("TrapCount = %d", s.TrapCount)
	}
}

func TestSyntheticProgramTogglesViolations(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg, SyntheticProgram(cfg.DMABase, cfg.DMALimit))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(800)
	if s.Done() {
		t.Fatal("synthetic program halted unexpectedly")
	}
	if s.TrapCount < 2 {
		t.Errorf("synthetic program trapped only %d times", s.TrapCount)
	}
	if s.Mem[UserBase] == 0 {
		t.Error("synthetic program produced no stores")
	}
}

func TestLockdownBlocksReconfig(t *testing.T) {
	a := NewAsm("lockdown-test")
	b0, _, _ := RegionCfgWords(0)
	a.Ldi(0, 0x42)
	a.Cfgw(b0, 0) // base0 <- 0x42
	a.Ldi(0, 1)
	a.Cfgw(CfgLockdown, 0) // lockdown <- 1
	a.Ldi(0, 0x99)
	a.Cfgw(b0, 0) // must be ignored
	a.Halt()
	a.Label("trap")
	a.Halt()
	a.TrapHandler("trap")
	prog := a.MustBuild()
	cfg := DefaultConfig()
	cfg.DMAEnabled = false
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	if got := s.Sim.ReadWord(s.MPU.Groups["cfg_base0"]); got != 0x42 {
		t.Errorf("cfg_base0 = %#x, want 0x42 (lockdown bypassed?)", got)
	}
	if got := s.Sim.ReadWord(s.MPU.Groups["lockdown"]); got != 1 {
		t.Errorf("lockdown = %d", got)
	}
}

func TestUnprivilegedCfgwIgnored(t *testing.T) {
	a := NewAsm("unpriv-cfgw")
	b0, _, _ := RegionCfgWords(0)
	a.Ldi(0, 0x42)
	a.Cfgw(b0, 0)
	a.Drop()
	a.Ldi(0, 0x99)
	a.Cfgw(b0, 0) // user mode: ignored
	a.Halt()
	a.Label("trap")
	a.Halt()
	a.TrapHandler("trap")
	cfg := DefaultConfig()
	cfg.DMAEnabled = false
	s, err := New(cfg, a.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	if got := s.Sim.ReadWord(s.MPU.Groups["cfg_base0"]); got != 0x42 {
		t.Errorf("cfg_base0 = %#x, want 0x42", got)
	}
}

func TestConfigRegClassification(t *testing.T) {
	m, _ := BuildMPU(DefaultMPUConfig())
	if !m.IsConfigReg(m.Groups["cfg_base0"][0]) {
		t.Error("cfg_base0 not recognized as config reg")
	}
	if !m.IsConfigReg(m.Groups["lockdown"][0]) {
		t.Error("lockdown not recognized as config reg")
	}
	if m.IsConfigReg(m.Groups["addr_r"][0]) {
		t.Error("addr_r misclassified as config reg")
	}
	names := m.ConfigRegNames()
	if len(names) != 3*m.Config.Regions+1 {
		t.Errorf("ConfigRegNames = %v", names)
	}
}

func TestAsmErrors(t *testing.T) {
	a := NewAsm("bad")
	a.Jmp("nowhere")
	if _, err := a.Build(); err == nil {
		t.Error("undefined label accepted")
	}
	a2 := NewAsm("no-trap")
	a2.Halt()
	if _, err := a2.Build(); err == nil {
		t.Error("missing trap handler accepted")
	}
	a3 := NewAsm("dup")
	a3.Label("x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate label should panic")
			}
		}()
		a3.Label("x")
	}()
}

func TestAsmBuildSealsProgram(t *testing.T) {
	a := NewAsm("seal")
	a.Label("trap").Halt().TrapHandler("trap")
	if _, err := a.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Build(); err == nil {
		t.Error("second Build accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("emit after Build should panic")
		}
	}()
	a.Nop()
}

func TestOpString(t *testing.T) {
	if OpLd.String() != "LD" || OpCfgw.String() != "CFGW" {
		t.Error("mnemonics wrong")
	}
	if Op(99).String() == "" {
		t.Error("unknown op should format")
	}
}

func TestRunStopsAtMaxCycles(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := New(cfg, SyntheticProgram(cfg.DMABase, cfg.DMALimit))
	n := s.Run(50)
	if n != 50 {
		t.Errorf("Run returned %d, want 50", n)
	}
}

func TestWithMPUValidation(t *testing.T) {
	m, _ := BuildMPU(DefaultMPUConfig())
	if _, err := WithMPU(Config{MemWords: 0}, SyntheticProgram(0x300, 0x33F), m); err == nil {
		t.Error("MemWords=0 accepted")
	}
	if _, err := WithMPU(DefaultConfig(), nil, m); err == nil {
		t.Error("nil program accepted")
	}
}

func TestDualRailMPUFunctionallyEquivalent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MPU.DualRail = true
	s, err := New(cfg, IllegalWriteProgram(20, cfg.DMABase, cfg.DMALimit))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(s.Cfg.MaxCycles)
	if !s.Done() || !s.Marked.Trapped || s.Marked.Committed {
		t.Fatalf("dual-rail golden run wrong: %+v", s.Marked)
	}
	if s.TrapCount != 1 || s.Mem[UserBase] == 0 {
		t.Error("dual-rail MPU broke legitimate behaviour")
	}
}

func TestDualRailCostsArea(t *testing.T) {
	base, err := BuildMPU(DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMPUConfig()
	cfg.DualRail = true
	dual, err := BuildMPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := netlist.DefaultAreaModel()
	ab, ad := m.TotalArea(base.Netlist), m.TotalArea(dual.Netlist)
	if ad <= ab*1.2 {
		t.Errorf("dual-rail area %v vs base %v: expected substantial overhead", ad, ab)
	}
	// Register count unchanged (storage is not duplicated).
	if len(dual.Netlist.Regs()) != len(base.Netlist.Regs()) {
		t.Error("dual-rail duplicated registers")
	}
	if _, ok := dual.Netlist.FindNode("legal_b"); !ok {
		t.Error("second rail not present")
	}
}

func TestDualRailSingleRailFlipFailsSecure(t *testing.T) {
	// Force one rail to disagree during the marked decision: the
	// access must be denied (viol), not granted.
	cfg := DefaultConfig()
	cfg.MPU.DualRail = true
	s, err := New(cfg, IllegalWriteProgram(20, cfg.DMABase, cfg.DMALimit))
	if err != nil {
		t.Fatal(err)
	}
	// A legitimate store with rail A's output forced high would be
	// granted in a single-rail design; with dual rail, forcing rail A
	// low on a LEGIT access must deny it. Use the legal gates
	// directly: run until a legit op is in flight, then check that
	// grant requires both rails.
	legalA, _ := s.MPU.Netlist.FindNode("legal")
	legalB, _ := s.MPU.Netlist.FindNode("legal_b")
	agree := 0
	for !s.Done() && s.Cycle() < 400 {
		s.Step()
		s.Sim.Eval()
		if s.Sim.Bool(legalA) != s.Sim.Bool(legalB) {
			t.Fatalf("rails disagree in fault-free run at cycle %d", s.Cycle())
		}
		agree++
	}
	if agree == 0 {
		t.Fatal("no cycles observed")
	}
}

// goldenTrace runs the write benchmark to completion with its bus trace
// and access log recorded.
func goldenTrace(t *testing.T) *SoC {
	t.Helper()
	s := defaultWrite(t)
	s.LogBusTrace, s.LogAccesses = true, true
	s.Run(s.Cfg.MaxCycles)
	if !s.Done() {
		t.Fatal("golden run did not halt")
	}
	return s
}

// TestBusTraceFlagsDMAReads checks RespDMARead against the access log:
// a response consumed at cycle c answers the access issued at c-2, and
// it is flagged exactly when that access was a DMA read.
func TestBusTraceFlagsDMAReads(t *testing.T) {
	s := goldenTrace(t)
	issued := map[int]AccessEvent{}
	for _, a := range s.Accesses {
		issued[a.Cycle] = a
	}
	dma, core := 0, 0
	for c, e := range s.BusTrace {
		if !e.RespConsumed {
			if e.RespDMARead {
				t.Fatalf("cycle %d: no response consumed, but flagged as a DMA read", c)
			}
			continue
		}
		a, ok := issued[c-2]
		if !ok {
			t.Fatalf("cycle %d: response consumed without an access issued at %d", c, c-2)
		}
		if want := a.DMA && !a.Write; e.RespDMARead != want {
			t.Fatalf("cycle %d: RespDMARead = %v for access %+v", c, e.RespDMARead, a)
		}
		if e.RespDMARead {
			dma++
		} else {
			core++
		}
	}
	if dma == 0 || core == 0 {
		t.Fatalf("%d DMA-read and %d core responses: the check needs both", dma, core)
	}
}

// firstResponse returns the first cycle after privilege drops at which
// the golden run consumes a response with the given DMA-read flag.
func firstResponse(t *testing.T, g *SoC, dmaRead bool) int {
	t.Helper()
	for c, e := range g.BusTrace {
		if e.RespConsumed && e.RespDMARead == dmaRead && c > 2 && !g.BusTrace[c-2].Priv && e.RespGrant {
			return c
		}
	}
	t.Fatalf("no granted response with RespDMARead = %v", dmaRead)
	return 0
}

// flippedPair returns two SoCs on the golden trajectory at the start of
// cycle c-1, the cycle whose end latches the MPU's decision for the
// response consumed at c; the second has the config bit flipped.
func flippedPair(t *testing.T, c int, group string, bit int) (golden, faulty *SoC) {
	t.Helper()
	golden, faulty = defaultWrite(t), defaultWrite(t)
	for golden.Cycle() < c-1 {
		golden.Step()
	}
	cp := golden.Snapshot()
	faulty.Restore(cp)
	faulty.FlipRegsNow([]netlist.NodeID{faulty.MPU.Groups[group][bit]})
	golden.Step()
	faulty.Step()
	if golden.Sim.Bool(golden.MPU.OutGrant[0]) == faulty.Sim.Bool(faulty.MPU.OutGrant[0]) {
		t.Fatalf("flipping %s[%d] left the response at cycle %d granted the same", group, bit, c)
	}
	return golden, faulty
}

// TestDMAReadResponseChangesOnlyDMAViol pins the invariant the
// lane-batched resume relies on: the response to a DMA read commits
// nothing and only counts a violation. Two SoCs start from one golden
// checkpoint; one has the DMA region's user-read permission cleared, so
// every later DMA read is denied with a violation where the golden run
// grants it. From then to the end of the run, the two must issue the
// same bus requests and hold the same memory and architectural state,
// except DMAViol. The control clears the user region's write
// permission instead, and the denied core store must change the CPU
// state.
func TestDMAReadResponseChangesOnlyDMAViol(t *testing.T) {
	g := goldenTrace(t)
	c := firstResponse(t, g, true)
	golden, faulty := flippedPair(t, c, "cfg_perm2", 0)
	golden.LogBusTrace, faulty.LogBusTrace = true, true
	for !golden.Done() || !faulty.Done() {
		golden.Step()
		faulty.Step()
		ga, fa := golden.Arch(), faulty.Arch()
		if fa.DMAViol <= ga.DMAViol {
			t.Fatalf("cycle %d: DMAViol %d, golden %d: the denied DMA read was not counted", golden.Cycle(), fa.DMAViol, ga.DMAViol)
		}
		fa.DMAViol = ga.DMAViol
		if fa != ga {
			t.Fatalf("cycle %d: state %+v, golden %+v", golden.Cycle(), fa, ga)
		}
		if !slices.Equal(faulty.Mem, golden.Mem) {
			t.Fatalf("cycle %d: memory differs", golden.Cycle())
		}
		fe, ge := faulty.BusTrace[len(faulty.BusTrace)-1], golden.BusTrace[len(golden.BusTrace)-1]
		fe.RespGrant, fe.RespViol = ge.RespGrant, ge.RespViol
		if fe != ge {
			t.Fatalf("cycle %d: bus %+v, golden %+v", golden.Cycle(), fe, ge)
		}
	}

	c = firstResponse(t, g, false)
	golden, faulty = flippedPair(t, c, "cfg_perm0", 1)
	golden.Step()
	faulty.Step()
	if faulty.Arch().CPU == golden.Arch().CPU {
		t.Fatalf("a core store denied at cycle %d left the CPU state golden", c)
	}
}
