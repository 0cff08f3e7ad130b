package timingsim

import (
	"math"

	"repro/internal/netlist"
)

// latchBoundTolerance (ps) absorbs float rounding between the sweep's
// step-by-step interval arithmetic and the bound's path sums.
const latchBoundTolerance = 1e-6

// Register classes of a latch bound. An open register captures through
// the plain setup/hold window: it is ungated, or its enable is high in
// the cycle. A closed register is clock-gated with its enable low and
// needs the window widened by GatedWindowFactor (Simulator.latch).
const (
	classOpen = iota
	classClosed
)

// nodeBound is one node's latch bound per register class. Over the
// cycle's live combinational paths from the node's output to the output
// of a node driving a register of that class, slack is the largest
// Σ(delay − Attenuation) and arrival the smallest Σ delay of the cells
// after the node: 0 at such a driver, and −Inf/+Inf where none is
// reachable or a strike never deposits (constants, sources). The four
// values sit together because the bound reads all of them per struck
// gate.
type nodeBound struct {
	slack, arrival [2]float64
}

// CycleTable is what InjectPruned reads about one injection cycle: its
// fault-free values, the flip table of every cell, and the cycle's
// latch bound and sweep mask. A table is immutable and safe for
// concurrent use.
type CycleTable struct {
	vals []uint64
	// flips[p] is the flip table of the cell at topological position
	// p; cells with more than maxTableFanin fanins have none.
	flips []uint8
	// bound is indexed by node and follows only the cycle's live
	// edges (liveEdge). bounded marks, by node, the nodes with a finite
	// bound in some class, the only rows the check reads: most struck
	// gates have no live path to a register driver.
	bound   []nodeBound
	bounded []uint64
	// reach[c] marks, by topological position, the nodes from which a
	// driver of a class-c register is reachable over any edge, live or
	// not; reachAny is their union.
	reach    [2][]uint64
	reachAny []uint64
	// winEnd and winStart are the per-class latching window limits,
	// widened by latchBoundTolerance.
	winEnd, winStart [2]float64
	minPulse         float64
}

// CycleTables returns, for the fault-free values of each cycle (the
// bitsets InjectBits reads, which the tables keep), the cycle's table.
// A table costs one 8-lane cell evaluation per cell for the flip tables
// and one reverse-topological pass for the latch bound and mask.
func (s *Simulator) CycleTables(cycles [][]uint64) []*CycleTable {
	out := make([]*CycleTable, len(cycles))
	for i, vb := range cycles {
		ct := &CycleTable{vals: vb, flips: make([]uint8, len(s.order))}
		s.values, s.valBits = nil, vb // the values evalFlipTable reads
		for p := range ct.flips {
			if !s.cells[p].wide {
				ct.flips[p] = s.evalFlipTable(int32(p))
			}
		}
		ct.fillLatch(s)
		out[i] = ct
	}
	return out
}

// liveEdge reports whether position k, a fanin of the cell at position
// q, is live in the table's cycle: flipping some set of q's fanins that
// contains k and can carry waves (combinational, not constant) flips
// the output under the cycle's values. Wider cells, and cells whose
// flip table has bit {} set (values that are not a consistent
// evaluation, under which propagate also flips between fanin events),
// keep every edge.
func (ct *CycleTable) liveEdge(s *Simulator, q, k int32) bool {
	c, tab := &s.cells[q], ct.flips[q]
	if c.wide || tab&1 != 0 {
		return true
	}
	never := int32(len(s.order))
	for j, f := range c.in {
		if f == never || s.cells[f].typ == netlist.Const0 || s.cells[f].typ == netlist.Const1 {
			tab &^= uint8(subsetLanes[j]) // no wave ever flips fanin j
		}
	}
	for j, f := range c.in {
		if f == k && tab&uint8(subsetLanes[j]) != 0 {
			return true
		}
	}
	return false
}

// fillLatch fills the latch bound and the sweep mask in one
// reverse-topological pass, in which every combinational fanout
// precedes its fanin. The bound follows only live edges; the mask
// follows every edge.
func (ct *CycleTable) fillLatch(s *Simulator) {
	gf := max(s.dm.GatedWindowFactor, 1) // as Simulator.latch scales it
	cp := s.dm.ClockPeriod
	words := (s.nl.NumNodes() + 63) / 64
	ct.bound = make([]nodeBound, s.nl.NumNodes())
	ct.reach = [2][]uint64{make([]uint64, words), make([]uint64, words)}
	ct.reachAny = make([]uint64, words)
	ct.bounded = make([]uint64, words)
	ct.winEnd = [2]float64{
		cp + s.dm.Hold - latchBoundTolerance,
		cp + s.dm.Hold*gf - latchBoundTolerance,
	}
	ct.winStart = [2]float64{
		cp - s.dm.Setup + latchBoundTolerance,
		cp - s.dm.Setup*gf + latchBoundTolerance,
	}
	ct.minPulse = s.dm.MinPulse
	inf := math.Inf(1)
	none := nodeBound{slack: [2]float64{-inf, -inf}, arrival: [2]float64{inf, inf}}
	for i := range ct.bound {
		ct.bound[i] = none
	}
	att := s.dm.Attenuation
	for k := len(s.order) - 1; k >= 0; k-- {
		c, next := &s.cells[k], &s.cells[k+1]
		if c.typ == netlist.Const0 || c.typ == netlist.Const1 {
			continue // Inject never deposits on a constant
		}
		b := none
		var reach [2]bool
		for _, r := range s.regs[c.regs:next.regs] {
			cl := classClosed
			if r.en == netlist.Invalid || ct.vals[r.en>>6]>>(uint(r.en)&63)&1 == 1 {
				cl = classOpen
			}
			b.slack[cl], b.arrival[cl] = 0, 0
			reach[cl] = true
		}
		for _, q := range s.fanouts[c.fanout:next.fanout] {
			for cl := range reach {
				reach[cl] = reach[cl] || ct.reach[cl][q>>6]>>(uint(q)&63)&1 != 0
			}
			if !ct.liveEdge(s, q, int32(k)) {
				continue
			}
			fb, d := &ct.bound[s.order[q]], s.cellDelay[s.cells[q].typ]
			for cl := range b.slack {
				b.slack[cl] = max(b.slack[cl], fb.slack[cl]+d-att)
				b.arrival[cl] = min(b.arrival[cl], fb.arrival[cl]+d)
			}
		}
		id := s.order[k]
		ct.bound[id] = b
		if b.arrival[classOpen] < inf || b.arrival[classClosed] < inf {
			ct.bounded[id>>6] |= 1 << (uint(id) & 63)
		}
		for cl, r := range reach {
			if r {
				ct.reach[cl][k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
	for w := range ct.reachAny {
		ct.reachAny[w] = ct.reach[classOpen][w] | ct.reach[classClosed][w]
	}
}

// classes reports, per register class, whether the strike could make
// Inject latch a register of that class in the table's cycle. False is
// a proof that no register of the class latches; true promises nothing.
//
// The bound follows the sweep: a propagated interval stays inside the
// span of its fanin intervals, and conditioning shifts its Start by the
// cell delay and its End by delay − Attenuation (or drops it); a struck
// gate's XOR with its own deposit stays inside the union of both. When
// a cell's flip table has bit {} clear, its output flips at an instant
// only when the set S of its fanins waved then has bit S set; every
// fanin in S carries a wave, so each is live (liveEdge), and an output
// interval starts no earlier and ends no later than some live fanin's
// interval does: the bound skips dead edges. So every
// interval at a class-c register driver ends no later than some
// deposit's end plus that gate's slack[c] and starts no earlier than
// Time plus its arrival[c], and a latch needs both to cover the class's
// window.
func (ct *CycleTable) classes(st Strike) (open, closed bool) {
	st.checkWidths()
	inf := math.Inf(1)
	endO, startO, endC, startC := -inf, inf, -inf, inf
	for i, g := range st.Gates {
		if ct.bounded[g>>6]>>(uint(g)&63)&1 == 0 {
			continue // its bound is −Inf/+Inf
		}
		// Same deposit filter as inject: narrower pulses are dropped.
		stop := st.Time + st.widthAt(i)
		if stop-st.Time < ct.minPulse {
			continue
		}
		b := &ct.bound[g]
		endO = max(endO, stop+b.slack[classOpen])
		startO = min(startO, st.Time+b.arrival[classOpen])
		endC = max(endC, stop+b.slack[classClosed])
		startC = min(startC, st.Time+b.arrival[classClosed])
	}
	return endO >= ct.winEnd[classOpen] && startO <= ct.winStart[classOpen],
		endC >= ct.winEnd[classClosed] && startC <= ct.winStart[classClosed]
}

// MayLatch reports whether the strike could make Inject latch any
// register in the table's cycle. False is a proof that Inject returns
// no FlippedRegs; true promises nothing.
func (ct *CycleTable) MayLatch(st Strike) bool {
	open, closed := ct.classes(st)
	return open || closed
}

// SpotBound is the latch bound of a set of gates in one cycle: per
// register class, the largest slack and the smallest arrival over the
// set's gates, in float32 rounded outward (slack up, arrival down), so
// one record takes 16 bytes.
type SpotBound struct {
	Slack, Arrival [2]float32
}

// SpotBound returns the latch bound of the gate set in the table's
// cycle: −Inf/+Inf in a class no gate of the set can reach.
func (ct *CycleTable) SpotBound(gates []netlist.NodeID) SpotBound {
	inf := math.Inf(1)
	slack, arrival := [2]float64{-inf, -inf}, [2]float64{inf, inf}
	for _, g := range gates {
		if ct.bounded[g>>6]>>(uint(g)&63)&1 == 0 {
			continue // its bound is −Inf/+Inf
		}
		b := &ct.bound[g]
		for cl := range slack {
			slack[cl] = max(slack[cl], b.slack[cl])
			arrival[cl] = min(arrival[cl], b.arrival[cl])
		}
	}
	var sb SpotBound
	for cl := range slack {
		sb.Slack[cl] = float32Up(slack[cl])
		sb.Arrival[cl] = float32Down(arrival[cl])
	}
	return sb
}

// SpotMayLatch reports whether a strike on gates of the bound's set, at
// instant time with no deposit wider than width, could pass the check
// classes makes. False is a proof that it does not, so that
// InjectPruned flips nothing; true promises nothing.
//
// classes keeps a class only when some deposit's (Time + w) + slack
// reaches winEnd and some gate's Time + arrival reaches winStart. Every
// w is at most width, every slack at most the set's Slack and every
// arrival at least its Arrival, and float addition is monotone, so
// (Time + width) + Slack and Time + Arrival bound both sums exactly as
// in the reals: no extra tolerance is needed.
func (ct *CycleTable) SpotMayLatch(sb *SpotBound, time, width float64) bool {
	end := time + width
	return end+float64(sb.Slack[classOpen]) >= ct.winEnd[classOpen] &&
		time+float64(sb.Arrival[classOpen]) <= ct.winStart[classOpen] ||
		end+float64(sb.Slack[classClosed]) >= ct.winEnd[classClosed] &&
			time+float64(sb.Arrival[classClosed]) <= ct.winStart[classClosed]
}

// SpotMayLatchWithin reports whether SpotMayLatch holds for some
// instant in [0, tmax] and width at most wmax. False is a proof that it
// holds for none.
func (ct *CycleTable) SpotMayLatchWithin(sb *SpotBound, tmax, wmax float64) bool {
	up, down := math.Inf(1), math.Inf(-1)
	for cl := range sb.Slack {
		a, ws := float64(sb.Arrival[cl]), ct.winStart[cl]
		// Float addition is monotone, so the start test t + a <= ws holds
		// on a down-set of instants and the end test (t + w) + Slack >=
		// winEnd on an up-set that grows with w. Some instant in [0, tmax]
		// passes both exactly when t, the latest one there that passes
		// the start test, passes the end test at wmax.
		t := min(tmax, ws-a)
		for t+a > ws {
			t = math.Nextafter(t, down)
		}
		for t < tmax && math.Nextafter(t, up)+a <= ws {
			t = math.Nextafter(t, up)
		}
		if t >= 0 && (t+wmax)+float64(sb.Slack[cl]) >= ct.winEnd[cl] {
			return true
		}
	}
	return false
}

// float32Up returns the smallest float32 not below x.
func float32Up(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// float32Down returns the largest float32 not above x.
func float32Down(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// InjectPruned is InjectBits for the cycle of table ct, pruned by its
// latch bound and mask and reading its flip tables; FlippedRegs is
// identical to InjectBits's. A strike the bound rejects is not swept at
// all. Any other strike seeds and sweeps only the nodes from which a
// register that can still latch it is reachable: open registers, plus
// closed ones when their widened window passes the bound. Every fanin
// of such a node is such a node too, so each swept node, and every
// register driver that can latch, sees the same waves as in the full
// sweep. ActiveGates and ReachedRegs count only the swept nodes.
func (s *Simulator) InjectPruned(ct *CycleTable, strike Strike) Result {
	s.values, s.valBits, s.flips = nil, ct.vals, ct.flips
	open, closed := ct.classes(strike)
	switch {
	case closed:
		return s.inject(strike, ct.reachAny)
	case open:
		return s.inject(strike, ct.reach[classOpen])
	}
	s.reset()
	return Result{}
}
