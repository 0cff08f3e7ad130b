package timingsim

import "repro/internal/netlist"

// Random-design helpers shared with the external test package, whose
// tests need the bundled MPU (and so packages that import timingsim).
var (
	BuildRandomDesign = buildRandomDesign
	RandomValues      = randomValues
	RandomStrike      = randomStrike
	ValueBits         = valueBits
)

// FlipTable returns the flip table ct holds for node id's cell, and
// false for a node without one: not combinational, or wider than
// maxTableFanin.
func (ct *CycleTable) FlipTable(s *Simulator, id netlist.NodeID) (uint8, bool) {
	p := s.topoPos[id]
	if p < 0 || s.cells[p].wide {
		return 0, false
	}
	return ct.flips[p], true
}
