package analytical

import (
	"repro/internal/netlist"
	"repro/internal/soc"
)

// OutcomeCoarse is the range-based variant of Outcome: instead of the
// exact golden access window it checks the benchmark's declared
// pre-attack ranges in full. It is conservative (may report failure
// where the exact evaluation reports success) but needs no golden
// access log.
func (e *Evaluator) OutcomeCoarse(base Policy, prog *soc.Program, flipped []netlist.NodeID) bool {
	faulted := e.Faulted(base, flipped)
	if !faulted.UserAllowed(prog.IllegalAddr, prog.IllegalWrite) {
		return false
	}
	for _, ar := range prog.PreAttack {
		if !faulted.RangeAllowed(ar) {
			return false
		}
	}
	return true
}

// RangeAllowed reports whether every address of the range is permitted.
func (p Policy) RangeAllowed(ar soc.AccessRange) bool {
	for a := uint32(ar.Lo); a <= uint32(ar.Hi); a++ {
		if !p.UserAllowed(uint16(a), ar.Write) {
			return false
		}
	}
	return true
}

// Faulted returns the policy with the given register flips applied.
// Flips on inert registers leave the policy unchanged.
func (e *Evaluator) Faulted(base Policy, flipped []netlist.NodeID) Policy {
	p := append(Policy(nil), base...)
	e.applyFlips(p, flipped)
	return p
}
