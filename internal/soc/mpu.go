// Package soc implements SECP16, the synthetic system-on-chip the
// framework is evaluated on. It substitutes for the commercial processor
// of the paper's experiments: a behavioural 16-bit CPU core, memory, and
// a DMA peripheral generate bus traffic, while the security-critical
// block — the memory protection unit (MPU) — is fully elaborated to a
// gate-level netlist through internal/hdl. The MPU is the part the paper
// itself simulates at gate level ("a sub-block of gates of around 1/8 of
// MPU"), so the cross-level flow is exercised exactly where the paper
// exercises it.
package soc

// The default MPU ships with a generated straight-line evaluator
// (mpu_evalgen.go) keyed by its compiled plan hash; regenerate it
// whenever the MPU netlist or the logicsim compiler changes.
//go:generate go run repro/cmd/gnlgen -builtin -o mpu_evalgen.go -pkg soc -prefix mpuGen

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/netlist"
)

// MPUConfig sizes the protection unit.
type MPUConfig struct {
	// Regions is the number of protection regions (default 4, at most
	// MaxRegions).
	Regions int
	// AddrBits is the bus address width (default 16).
	AddrBits int
	// DualRail duplicates the permission-check logic: the access is
	// granted only when both independent copies agree it is legal,
	// and flagged as a violation otherwise. A transient that upsets
	// a single rail then fails secure (denial) instead of bypassing
	// the policy — a classic logic-duplication countermeasure whose
	// cost/benefit the framework can quantify. The configuration
	// store is NOT duplicated; register SEUs are out of this
	// countermeasure's scope.
	DualRail bool
}

// MaxRegions is the largest number of protection regions BuildMPU
// accepts.
const MaxRegions = 4

// DefaultMPUConfig returns the configuration used by all paper
// experiments: 4 regions over a 16-bit address space.
func DefaultMPUConfig() MPUConfig { return MPUConfig{Regions: 4, AddrBits: 16} }

// Config-port word indices (cfg_addr values). Region i occupies words
// 3i..3i+2 as base/limit/perm; the two top words are control.
const (
	// CfgWordsPerRegion is the stride of a region's config block.
	CfgWordsPerRegion = 3
	// CfgClearViol is the cfg_addr that clears the sticky violation
	// state (any write).
	CfgClearViol = 14
	// CfgLockdown is the cfg_addr that loads the lockdown bit from
	// wdata bit 0; once set, region config writes are ignored.
	CfgLockdown = 15
)

// Permission bits stored in each region's perm word.
const (
	PermUserRead  = 1 << 0 // user-mode reads allowed
	PermUserWrite = 1 << 1 // user-mode writes allowed
	PermEnable    = 1 << 2 // region participates in matching
)

// permBits is the width of the perm config word.
const permBits = 3

// MPU bundles the elaborated netlist with the node ids of its ports and
// register groups, so the rest of the framework can drive and observe it
// through a logic simulator.
type MPU struct {
	Config  MPUConfig
	Netlist *netlist.Netlist
	// Groups maps register-word names (e.g. "cfg_base0", "addr_r") to
	// their DFF nodes, LSB first.
	Groups map[string][]netlist.NodeID

	// Request port (inputs).
	InValid []netlist.NodeID // 1 bit: a bus access is presented
	InWrite []netlist.NodeID // 1 bit: access is a write
	InPriv  []netlist.NodeID // 1 bit: requester is privileged
	InAddr  []netlist.NodeID // AddrBits

	// Config port (inputs).
	InCfgWe    []netlist.NodeID // 1 bit
	InCfgPriv  []netlist.NodeID // 1 bit: config writer is privileged
	InCfgAddr  []netlist.NodeID // 4 bits
	InCfgWData []netlist.NodeID // AddrBits

	// Response port (registered outputs; valid one cycle after the
	// request).
	OutGrant []netlist.NodeID // 1 bit: access may commit
	OutViol  []netlist.NodeID // 1 bit: the responding signal
	OutIrq   []netlist.NodeID // 1 bit: sticky violation interrupt

	// RespondingSignals lists the register nodes the paper's
	// pre-characterization starts from: the violation response
	// register and the sticky interrupt state.
	RespondingSignals []netlist.NodeID

	// CriticalGate is the single combinational point of failure: the
	// "legal" gate whose output feeds both the grant and the
	// violation decision. A transient here flips both coherently.
	CriticalGate netlist.NodeID
}

// RegionCfgWords returns the (base, limit, perm) cfg_addr triplet of a
// region.
func RegionCfgWords(region int) (base, limit, perm int) {
	return region * CfgWordsPerRegion, region*CfgWordsPerRegion + 1, region*CfgWordsPerRegion + 2
}

// BuildMPU elaborates the protection unit to gates.
//
// Architecture (all registers are DFF bits in the netlist):
//
//	stage 0 (request capture):  addr_r, write_r, priv_r, valid_r
//	config store:               cfg_base_i, cfg_limit_i, cfg_perm_i,
//	                            lockdown, plus an access counter
//	stage 1 (decision):         grant_r, viol_r, viol_addr_r,
//	                            viol_pending, fsm_state
//
// The combinational core checks, per region: enable AND base <= addr AND
// addr <= limit AND (read ? user_read : user_write); a privileged access
// is always legal. viol_r — the responding signal — rises for exactly
// one cycle on an illegal user access.
func BuildMPU(cfg MPUConfig) (*MPU, error) {
	if cfg.Regions < 1 || cfg.Regions > MaxRegions {
		return nil, fmt.Errorf("soc: %d regions unsupported (1..%d)", cfg.Regions, MaxRegions)
	}
	if cfg.AddrBits < 4 || cfg.AddrBits > 16 {
		return nil, fmt.Errorf("soc: %d address bits unsupported (4..16)", cfg.AddrBits)
	}
	b := hdl.NewBuilder()
	ab := cfg.AddrBits

	// --- Ports ---------------------------------------------------------
	valid := b.Input("req_valid", 1)
	write := b.Input("req_write", 1)
	priv := b.Input("req_priv", 1)
	addr := b.Input("req_addr", ab)
	cfgWe := b.Input("cfg_we", 1)
	cfgPriv := b.Input("cfg_priv", 1)
	cfgAddr := b.Input("cfg_addr", 4)
	cfgWData := b.Input("cfg_wdata", ab)

	// --- Stage 0: request capture registers ----------------------------
	// Bus signals pass through isolation buffers before capture (the
	// pad/bus-interface cells of a real block) — part of the
	// fault-injection surface.
	addrR := b.Reg("addr_r", ab, 0)
	addrR.SetNext(b.Buf(addr))
	writeR := b.Reg("write_r", 1, 0)
	writeR.SetNext(b.Buf(write))
	privR := b.Reg("priv_r", 1, 0)
	privR.SetNext(b.Buf(priv))
	validR := b.Reg("valid_r", 1, 0)
	validR.SetNext(b.Buf(valid))

	// --- Config store ---------------------------------------------------
	lockdown := b.Reg("lockdown", 1, 0)
	cfgSel := b.Decoder(cfgAddr) // one-hot over 16 cfg words
	// A region config write requires privilege and no lockdown.
	cfgWriteOK := b.And(cfgWe, cfgPriv, b.Not(lockdown.Q))
	// Control words require privilege but ignore lockdown (the clear
	// path must stay usable for the trap handler).
	ctrlWriteOK := b.And(cfgWe, cfgPriv)

	type regionRegs struct {
		base, limit, perm *hdl.Reg
	}
	regions := make([]regionRegs, cfg.Regions)
	for i := 0; i < cfg.Regions; i++ {
		wb, wl, wp := RegionCfgWords(i)
		rr := regionRegs{
			base:  b.Reg(fmt.Sprintf("cfg_base%d", i), ab, 0),
			limit: b.Reg(fmt.Sprintf("cfg_limit%d", i), ab, 0),
			perm:  b.Reg(fmt.Sprintf("cfg_perm%d", i), permBits, 0),
		}
		rr.base.SetNextEn(b.And(cfgWriteOK, cfgSel.Bit(wb)), cfgWData)
		rr.limit.SetNextEn(b.And(cfgWriteOK, cfgSel.Bit(wl)), cfgWData)
		rr.perm.SetNextEn(b.And(cfgWriteOK, cfgSel.Bit(wp)), cfgWData.Bits(permBits-1, 0))
		regions[i] = rr
	}
	lockdown.SetNextEn(b.And(ctrlWriteOK, cfgSel.Bit(CfgLockdown)), cfgWData.Bits(0, 0))
	clearViol := b.And(ctrlWriteOK, cfgSel.Bit(CfgClearViol))

	// --- Combinational permission check ---------------------------------
	// checkRail builds one full copy of the permission check; dual-rail
	// MPUs instantiate it twice with independent gates.
	checkRail := func() hdl.Signal {
		var allows []hdl.Signal
		for i := 0; i < cfg.Regions; i++ {
			rr := regions[i]
			enable := rr.perm.Q.Bit(2)
			uread := rr.perm.Q.Bit(0)
			uwrite := rr.perm.Q.Bit(1)
			inRange := b.And(b.Geu(addrR.Q, rr.base.Q), b.Leu(addrR.Q, rr.limit.Q))
			match := b.And(enable, inRange)
			permOK := b.Mux(writeR.Q, uread, uwrite)
			allows = append(allows, b.And(match, permOK))
		}
		anyAllow := allows[0]
		if len(allows) > 1 {
			anyAllow = b.OrAll(hdl.Concat(allows...))
		}
		return b.Or(privR.Q, anyAllow)
	}
	legal := checkRail()
	nl0 := b.Netlist()
	nl0.SetName(legal[0], "legal")
	agreed := legal
	if cfg.DualRail {
		railB := checkRail()
		nl0.SetName(railB[0], "legal_b")
		agreed = b.And(legal, railB)
	}
	grantNext := b.And(validR.Q, agreed)
	violNext := b.And(validR.Q, b.Not(agreed))

	// --- Stage 1: decision registers ------------------------------------
	grantR := b.Reg("grant_r", 1, 0)
	grantR.SetNext(grantNext)
	violR := b.Reg("viol_r", 1, 0)
	violR.SetNext(violNext)
	violAddrR := b.Reg("viol_addr_r", ab, 0)
	violAddrR.SetNextEn(violNext, addrR.Q)
	violPending := b.Reg("viol_pending", 1, 0)
	violPending.SetNext(b.And(b.Or(violPending.Q, violNext), b.Not(clearViol)))

	// Violation FSM: IDLE(00) -> TRIG(01) on violation, TRIG -> WAIT(10),
	// WAIT -> IDLE on clear. Exists to give the design a security state
	// machine whose illegal transitions an attack can target.
	fsm := b.Reg("fsm_state", 2, 0)
	isIdle := b.Nor(fsm.Q.Bit(0), fsm.Q.Bit(1))
	isTrig := b.And(fsm.Q.Bit(0), b.Not(fsm.Q.Bit(1)))
	isWait := b.And(fsm.Q.Bit(1), b.Not(fsm.Q.Bit(0)))
	nextBit0 := b.And(isIdle, violNext)                       // enter TRIG
	nextBit1 := b.Or(isTrig, b.And(isWait, b.Not(clearViol))) // hold WAIT
	fsm.SetNext(hdl.Concat(nextBit0, nextBit1))

	// Debug/telemetry unit: bus-activity counters and trace registers
	// of the kind every commercial block carries. None of it can
	// influence the security decision — errors injected here persist
	// (or sit until overwritten) without propagating: a memory-type
	// register population by construction.
	accessCnt := b.Reg("access_cnt", 16, 0)
	accessCnt.SetNextEn(validR.Q, b.Inc(accessCnt.Q))
	// Last-seen bus address, captured through its own isolation
	// buffers every cycle (debug trace port).
	dbgAddr := b.Reg("dbg_addr", ab, 0)
	dbgAddr.SetNext(b.Buf(addr))
	// Running bus signature: accumulates the observed address stream.
	dbgSig := b.Reg("dbg_sig", ab, 0)
	dbgSig.SetNext(b.Add(dbgSig.Q, b.Buf(addr)))

	irq := b.Or(violR.Q, b.Not(isIdle))

	// --- Outputs ---------------------------------------------------------
	b.Output("grant", grantR.Q)
	b.Output("viol", violR.Q)
	b.Output("irq", irq)
	b.Output("viol_addr", violAddrR.Q)

	nl, err := b.Build()
	if err != nil {
		return nil, err
	}
	m := &MPU{
		Config:  cfg,
		Netlist: nl,
		Groups:  b.RegGroups(),

		InValid: valid, InWrite: write, InPriv: priv, InAddr: addr,
		InCfgWe: cfgWe, InCfgPriv: cfgPriv, InCfgAddr: cfgAddr, InCfgWData: cfgWData,
		OutGrant: grantR.Q, OutViol: violR.Q, OutIrq: irq,
	}
	m.RespondingSignals = append(m.RespondingSignals, violR.Q[0])
	m.RespondingSignals = append(m.RespondingSignals, fsm.Q[0], fsm.Q[1])
	m.CriticalGate = legal[0]
	return m, nil
}

// ConfigRegNames returns the names of the MPU's configuration register
// words (region base/limit/perm plus lockdown): the registers whose
// content is defined by system configuration rather than by in-flight
// computation. The analytical evaluator treats faults confined to these
// words closed-form.
func (m *MPU) ConfigRegNames() []string {
	var names []string
	for i := 0; i < m.Config.Regions; i++ {
		names = append(names,
			fmt.Sprintf("cfg_base%d", i),
			fmt.Sprintf("cfg_limit%d", i),
			fmt.Sprintf("cfg_perm%d", i))
	}
	names = append(names, "lockdown")
	return names
}

// IsConfigReg reports whether a DFF node belongs to the configuration
// register population.
func (m *MPU) IsConfigReg(id netlist.NodeID) bool {
	for _, name := range m.ConfigRegNames() {
		for _, bit := range m.Groups[name] {
			if bit == id {
				return true
			}
		}
	}
	return false
}
