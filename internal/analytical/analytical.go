// Package analytical evaluates fault-attack outcomes closed-form for
// errors confined to memory-type registers, replacing the RTL resume of
// the cross-level flow (Section 4, Observation 3 of the paper: "the
// outcome of fault attack on these registers is not determined by the
// timing distance ... but mainly by the functionality of the
// memory-type registers in the system. Therefore, we choose to evaluate
// these registers analytically considering the system configuration,
// faulty registers, and benchmarks").
//
// For the MPU the memory-type population splits into:
//
//   - configuration registers (region base/limit/perm, lockdown): a flip
//     changes the protection policy — the outcome is whether the faulted
//     policy (a) permits the benchmark's marked illegal access and
//     (b) still permits the benchmark's legitimate pre-attack traffic
//     (otherwise the benchmark traps and halts before the attack);
//   - inert state (sticky violation flag, violation address latch, FSM,
//     access counter): flips persist but never gate the grant/violation
//     decision, so the attack outcome is unchanged (failure).
package analytical

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/soc"
)

// cfgField identifies which word of a region's configuration a DFF bit
// belongs to; fieldNone marks every node that is no configuration bit.
type cfgField uint8

const (
	fieldNone cfgField = iota
	fieldBase
	fieldLimit
	fieldPerm
)

type cfgLoc struct {
	field  cfgField
	region uint8
	bit    uint8
}

// Region is a decoded protection region.
type Region struct {
	Base, Limit uint16
	Perm        uint8
}

// Allows reports whether the region permits a user-mode access.
func (r Region) Allows(addr uint16, write bool) bool {
	if r.Perm&soc.PermEnable == 0 || addr < r.Base || addr > r.Limit {
		return false
	}
	if write {
		return r.Perm&soc.PermUserWrite != 0
	}
	return r.Perm&soc.PermUserRead != 0
}

// Policy is a full set of regions.
type Policy []Region

// UserAllowed reports whether any region permits the access.
func (p Policy) UserAllowed(addr uint16, write bool) bool {
	for _, r := range p {
		if r.Allows(addr, write) {
			return true
		}
	}
	return false
}

// Evaluator maps MPU register bits to their configuration semantics and
// evaluates fault outcomes without simulation. Its tables are dense
// over the netlist's node IDs, so classifying a flip is one array read.
type Evaluator struct {
	mpu   *soc.MPU
	cfg   []cfgLoc
	inert []bool
}

// New indexes the MPU's register structure.
func New(mpu *soc.MPU) (*Evaluator, error) {
	words := make([][3][]netlist.NodeID, mpu.Config.Regions)
	for i := range words {
		for f, name := range []string{
			fmt.Sprintf("cfg_base%d", i),
			fmt.Sprintf("cfg_limit%d", i),
			fmt.Sprintf("cfg_perm%d", i),
		} {
			bits, ok := mpu.Groups[name]
			if !ok {
				return nil, fmt.Errorf("analytical: MPU has no register group %q", name)
			}
			words[i][f] = bits
		}
	}
	nn := mpu.Netlist.NumNodes()
	e := &Evaluator{
		mpu:   mpu,
		cfg:   make([]cfgLoc, nn),
		inert: make([]bool, nn),
	}
	for i, fields := range words {
		for f, bits := range fields {
			for b, id := range bits {
				e.cfg[id] = cfgLoc{field: fieldBase + cfgField(f), region: uint8(i), bit: uint8(b)}
			}
		}
	}
	// State that persists but cannot influence the grant/violation
	// decision of any access. lockdown is inert too, post-setup: the
	// benchmarks issue no region-config writes after dropping
	// privilege, so a flipped lockdown bit gates nothing.
	for _, name := range []string{"viol_pending", "viol_addr_r", "fsm_state", "access_cnt", "dbg_addr", "dbg_sig", "lockdown"} {
		for _, id := range e.mpu.Groups[name] {
			e.inert[id] = true
		}
	}
	return e, nil
}

// Inert reports whether a register's content can never influence the
// grant/violation decision (sticky flags, latched diagnostics,
// counters). Errors confined to inert registers are memory-type by
// construction.
func (e *Evaluator) Inert(id netlist.NodeID) bool {
	return uint(id) < uint(len(e.inert)) && e.inert[id]
}

// cfgOf returns the configuration bit a node holds; fieldNone for
// every other node, including IDs outside the netlist.
func (e *Evaluator) cfgOf(id netlist.NodeID) cfgLoc {
	if uint(id) < uint(len(e.cfg)) {
		return e.cfg[id]
	}
	return cfgLoc{}
}

// Covers reports whether every flipped register is within the
// analytical model (configuration or inert state). The Monte Carlo
// engine falls back to RTL simulation otherwise.
func (e *Evaluator) Covers(flipped []netlist.NodeID) bool {
	for _, id := range flipped {
		if e.cfgOf(id).field == fieldNone && !e.Inert(id) {
			return false
		}
	}
	return true
}

// CurrentPolicy decodes the protection policy from the SoC's live MPU
// register state.
func (e *Evaluator) CurrentPolicy(s *soc.SoC) Policy {
	p := make(Policy, e.mpu.Config.Regions)
	for i := range p {
		p[i] = Region{
			Base:  uint16(s.Sim.ReadWord(e.mpu.Groups[fmt.Sprintf("cfg_base%d", i)])),
			Limit: uint16(s.Sim.ReadWord(e.mpu.Groups[fmt.Sprintf("cfg_limit%d", i)])),
			Perm:  uint8(s.Sim.ReadWord(e.mpu.Groups[fmt.Sprintf("cfg_perm%d", i)])),
		}
	}
	return p
}

// applyFlips XORs the configuration bits among flipped into p in place.
func (e *Evaluator) applyFlips(p Policy, flipped []netlist.NodeID) {
	for _, id := range flipped {
		switch loc := e.cfgOf(id); loc.field {
		case fieldBase:
			p[loc.region].Base ^= 1 << loc.bit
		case fieldLimit:
			p[loc.region].Limit ^= 1 << loc.bit
		case fieldPerm:
			p[loc.region].Perm ^= 1 << loc.bit
		}
	}
}

// Outcome evaluates whether an attack whose latched errors are the given
// flips succeeds. base is the fault-free policy (captured from the
// golden run after MPU setup); window lists the golden-run accesses
// issued between the injection cycle and the marked access (exclusive):
// those are the legitimate operations the faulted policy must still
// permit, or the benchmark traps and halts before the attack. It must
// only be called when Covers(flipped) is true. It allocates nothing for
// a policy of at most soc.MaxRegions regions: the flips are applied to
// a stack copy.
func (e *Evaluator) Outcome(base Policy, prog *soc.Program, window []soc.AccessEvent, flipped []netlist.NodeID) bool {
	var buf [soc.MaxRegions]Region
	faulted := append(Policy(buf[:0]), base...)
	e.applyFlips(faulted, flipped)
	if !faulted.UserAllowed(prog.IllegalAddr, prog.IllegalWrite) {
		return false
	}
	for _, ev := range window {
		// DMA denials do not trap the core; privileged accesses are
		// always legal; the marked access is the attack itself.
		if ev.DMA || ev.Priv || ev.Marked {
			continue
		}
		if !faulted.UserAllowed(ev.Addr, ev.Write) {
			return false
		}
	}
	return true
}
