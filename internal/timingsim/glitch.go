package timingsim

import (
	"math"
	"slices"

	"repro/internal/netlist"
)

// GlitchThresholds models a clock-glitch injection: for one cycle the
// capture edge arrives early by the glitch depth, so registers whose
// data has not settled capture the previous cycle's value. prev and cur
// give every node's fault-free value in the previous and in the
// glitched cycle. It returns, for each register in Netlist.Regs order,
// the depth above which it latches stale data: ClockPeriod − Setup −
// its D input's arrival time, or +Inf when its D input does not change.
//
// Arrival times use the single-transition timing model: a net that
// changes between the two cycles transitions once, at its longest-path
// delay from the changed sources (registers and primary inputs switch
// at the cycle boundary). Short-path hazards and multiple transitions
// are not modeled. Clock-gated registers whose enable is low do not
// capture at all and therefore cannot be glitched.
func (s *Simulator) GlitchThresholds(prev, cur func(netlist.NodeID) bool) []float64 {
	const unchanged = -1.0
	arrival := make([]float64, s.nl.NumNodes())
	// Sources: registers and inputs switch at time 0 when they differ
	// between cycles.
	for i := 0; i < s.nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if s.nl.Node(id).Type.IsCombinational() {
			continue
		}
		if prev(id) != cur(id) {
			arrival[i] = 0
		} else {
			arrival[i] = unchanged
		}
	}
	for _, id := range s.order {
		node := s.nl.Node(id)
		if prev(id) == cur(id) {
			arrival[id] = unchanged
			continue
		}
		latest := 0.0
		for _, f := range node.Fanin {
			if a := arrival[f]; a != unchanged && a > latest {
				latest = a
			}
		}
		arrival[id] = latest + s.Delay(id)
	}

	th := make([]float64, len(s.nl.Regs()))
	for i, r := range s.nl.Regs() {
		node := s.nl.Node(r)
		a := arrival[node.Fanin[0]]
		if a == unchanged || (node.En != netlist.Invalid && !cur(node.En)) {
			th[i] = math.Inf(1) // unchanged, or clock-gated off: no capture to glitch
		} else {
			th[i] = s.dm.ClockPeriod - s.dm.Setup - a
		}
	}
	return th
}

// GlitchCapture returns, in ID order, the registers that latch stale
// data under a glitch of the given depth (ps): those whose
// GlitchThresholds depth is below it.
func (s *Simulator) GlitchCapture(prev, cur func(netlist.NodeID) bool, depth float64) []netlist.NodeID {
	var flipped []netlist.NodeID
	for i, th := range s.GlitchThresholds(prev, cur) {
		if depth > th {
			flipped = append(flipped, s.nl.Regs()[i])
		}
	}
	slices.Sort(flipped)
	return flipped
}

// SettleTime returns the longest-path settle time of the netlist under
// the delay model (the minimum safe capture time): the maximum over
// registers of the D-input's longest topological delay plus setup.
func (s *Simulator) SettleTime() float64 {
	depth := make([]float64, s.nl.NumNodes())
	for _, id := range s.order {
		latest := 0.0
		for _, f := range s.nl.Node(id).Fanin {
			if depth[f] > latest {
				latest = depth[f]
			}
		}
		depth[id] = latest + s.Delay(id)
	}
	worst := 0.0
	for _, r := range s.nl.Regs() {
		if d := depth[s.nl.Node(r).Fanin[0]]; d > worst {
			worst = d
		}
	}
	return worst + s.dm.Setup
}
