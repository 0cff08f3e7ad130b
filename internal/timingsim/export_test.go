package timingsim

import "repro/internal/netlist"

// Random-design helpers shared with the external test package, whose
// tests need the bundled MPU (and so packages that import timingsim).
var (
	BuildRandomDesign = buildRandomDesign
	RandomValues      = randomValues
	RandomStrike      = randomStrike
	ValueBits         = valueBits
	Settle            = settle
	FractionalDelay   = fractionalDelayModel
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

// EdgeCounts counts, over the cells that have a flip table in ct, the
// combinational fanin edges the latch bound skips as dead, and the
// cells whose table has bit {} set, which keep every edge.
func (ct *CycleTable) EdgeCounts(s *Simulator) (dead, keepAll int) {
	never := int32(len(s.order))
	for p := range s.order {
		c := &s.cells[p]
		if c.wide {
			continue
		}
		if ct.flips[p]&1 != 0 {
			keepAll++
			continue
		}
		for _, q := range c.in {
			if q != never && !ct.liveEdge(s, int32(p), q) {
				dead++
			}
		}
	}
	return dead, keepAll
}

// FullByte reports whether the flipped set covers every bit of at least
// one full byte of a register word — the paper notes that none of the
// observed single-byte errors flip all eight bits, which is why the
// single-byte abstraction used by prior fault analyses is inaccurate.
func (l *RegisterLayout) FullByte(flipped []netlist.NodeID, groups map[string][]netlist.NodeID) bool {
	type byteKey struct {
		group string
		byteN int
	}
	count := make(map[byteKey]int)
	for _, id := range flipped {
		if rb, ok := l.loc[id]; ok {
			count[byteKey{rb.group, rb.bit / 8}]++
		}
	}
	for k, c := range count {
		width := len(groups[k.group]) - k.byteN*8
		if width > 8 {
			width = 8
		}
		if width > 0 && c == width {
			return true
		}
	}
	return false
}

// Wave returns the fault waveform computed for a node by the most
// recent Inject call. The caller must not mutate it.
func (s *Simulator) Wave(id netlist.NodeID) []Interval {
	if p := s.topoPos[id]; p >= 0 {
		return s.wave(p)
	}
	return nil
}
