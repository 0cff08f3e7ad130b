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
