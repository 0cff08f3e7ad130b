package timingsim

import (
	"math"
	"slices"

	"repro/internal/netlist"
)

// latchBoundTolerance (ps) absorbs float rounding between the sweep's
// step-by-step interval arithmetic and the bound's path sums.
const latchBoundTolerance = 1e-6

// Register classes of a latch table. An open register captures through
// the plain setup/hold window: it is ungated, or its enable is high in
// the cycle. A closed register is clock-gated with its enable low and
// needs the window widened by GatedWindowFactor (latchCheck).
const (
	classOpen = iota
	classClosed
)

// nodeBound is one node's latch bound per register class. Over the
// combinational paths from the node's output to the output of a node
// driving a register of that class, slack is the largest
// Σ(delay − Attenuation) and arrival the smallest Σ delay of the cells
// after the node: 0 at such a driver, and −Inf/+Inf where none is
// reachable or a strike never deposits (constants, sources). The four
// values sit together because the bound reads all of them per struck
// gate.
type nodeBound struct {
	slack, arrival [2]float64
}

// LatchTable is the latch bound and sweep mask of one register-enable
// pattern of an injection cycle. It depends on the cycle's fault-free
// values only through the register enables, so the cycles of an attack
// window share a few tables (Simulator.LatchTables). A table is
// immutable and safe for concurrent use.
type LatchTable struct {
	bound []nodeBound // indexed by node
	// reach[c] marks, by topological position, the nodes from which a
	// driver of a class-c register is reachable (the nodes whose
	// arrival[c] is finite); reachAny is their union.
	reach    [2][]uint64
	reachAny []uint64
	// winEnd and winStart are the per-class latching window limits,
	// widened by latchBoundTolerance.
	winEnd, winStart [2]float64
	minPulse         float64
}

// LatchTables returns, for the fault-free values of each cycle (the
// bitsets InjectBits reads), the latch table of that cycle's
// register-enable pattern. Cycles with the same pattern share one
// table, so the cost is one reverse-topological pass per distinct
// pattern.
func (s *Simulator) LatchTables(cycles [][]uint64) []*LatchTable {
	out := make([]*LatchTable, len(cycles))
	var opens [][]bool
	var tables []*LatchTable
	for i, vb := range cycles {
		open := make([]bool, s.nl.NumNodes()) // open[r]: register r is open this cycle
		for _, r := range s.nl.Regs() {
			en := s.nl.Node(r).En
			open[r] = en == netlist.Invalid || vb[en>>6]>>(uint(en)&63)&1 == 1
		}
		k := slices.IndexFunc(opens, func(o []bool) bool { return slices.Equal(o, open) })
		if k < 0 {
			k = len(tables)
			opens = append(opens, open)
			tables = append(tables, s.newLatchTable(open))
		}
		out[i] = tables[k]
	}
	return out
}

// newLatchTable fills a table in one reverse-topological pass, in which
// every combinational fanout precedes its fanin; open[r] gives register
// r's class.
func (s *Simulator) newLatchTable(open []bool) *LatchTable {
	gf := max(s.dm.GatedWindowFactor, 1) // as latchCheck scales it
	cp := s.dm.ClockPeriod
	words := (len(s.delays) + 63) / 64
	lt := &LatchTable{
		bound:    make([]nodeBound, len(s.delays)),
		reach:    [2][]uint64{make([]uint64, words), make([]uint64, words)},
		reachAny: make([]uint64, words),
		winEnd: [2]float64{
			cp + s.dm.Hold - latchBoundTolerance,
			cp + s.dm.Hold*gf - latchBoundTolerance,
		},
		winStart: [2]float64{
			cp - s.dm.Setup + latchBoundTolerance,
			cp - s.dm.Setup*gf + latchBoundTolerance,
		},
		minPulse: s.dm.MinPulse,
	}
	inf := math.Inf(1)
	none := nodeBound{slack: [2]float64{-inf, -inf}, arrival: [2]float64{inf, inf}}
	for i := range lt.bound {
		lt.bound[i] = none
	}
	att := s.dm.Attenuation
	for k := len(s.order) - 1; k >= 0; k-- {
		id := s.order[k]
		if t := s.cellTypes[id]; t == netlist.Const0 || t == netlist.Const1 {
			continue // Inject never deposits on a constant
		}
		b := none
		for _, r := range s.regFanout[id] {
			c := classClosed
			if open[r] {
				c = classOpen
			}
			b.slack[c], b.arrival[c] = 0, 0
		}
		for _, fo := range s.combFanout[id] {
			fb, d := &lt.bound[fo], s.delays[fo]
			for c := range b.slack {
				b.slack[c] = max(b.slack[c], fb.slack[c]+d-att)
				b.arrival[c] = min(b.arrival[c], fb.arrival[c]+d)
			}
		}
		lt.bound[id] = b
		for c, arr := range b.arrival {
			if arr < inf {
				lt.reach[c][k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
	for w := range lt.reachAny {
		lt.reachAny[w] = lt.reach[classOpen][w] | lt.reach[classClosed][w]
	}
	return lt
}

// classes reports, per register class, whether the strike could make
// Inject latch a register of that class. False is a proof that no
// register of the class latches, for every fault-free value assignment
// with the table's enable pattern; true promises nothing.
//
// The bound follows the sweep: a propagated interval stays inside the
// span of its fanin intervals, and conditioning shifts its Start by the
// cell delay and its End by delay − Attenuation (or drops it); a struck
// gate's XOR with its own deposit stays inside the union of both. So
// every interval at a class-c register driver ends no later than some
// deposit's end plus that gate's slack[c] and starts no earlier than
// Time plus its arrival[c], and a latch needs both to cover the class's
// window.
func (lt *LatchTable) classes(st Strike) (open, closed bool) {
	inf := math.Inf(1)
	endO, startO, endC, startC := -inf, inf, -inf, inf
	for i, g := range st.Gates {
		// Same deposit filter as inject: narrower pulses are dropped.
		stop := st.Time + st.widthAt(i)
		if stop-st.Time < lt.minPulse {
			continue
		}
		b := &lt.bound[g]
		endO = max(endO, stop+b.slack[classOpen])
		startO = min(startO, st.Time+b.arrival[classOpen])
		endC = max(endC, stop+b.slack[classClosed])
		startC = min(startC, st.Time+b.arrival[classClosed])
	}
	return endO >= lt.winEnd[classOpen] && startO <= lt.winStart[classOpen],
		endC >= lt.winEnd[classClosed] && startC <= lt.winStart[classClosed]
}

// MayLatch reports whether the strike could make Inject latch any
// register in a cycle with the table's enable pattern. False is a proof
// that Inject returns no FlippedRegs; true promises nothing.
func (lt *LatchTable) MayLatch(st Strike) bool {
	open, closed := lt.classes(st)
	return open || closed
}

// InjectPruned is InjectBits for a cycle whose register-enable pattern
// has latch table lt, pruned by that table; FlippedRegs is identical to
// InjectBits's. A strike the bound rejects is not swept at all. Any
// other strike seeds and sweeps only the nodes from which a register
// that can still latch it is reachable: open registers, plus closed
// ones when their widened window passes the bound. Every fanin of such
// a node is such a node too, so each swept node, and every register
// driver that can latch, sees the same waves as in the full sweep.
// ActiveGates and ReachedRegs count only the swept nodes.
func (s *Simulator) InjectPruned(valbits []uint64, lt *LatchTable, strike Strike) Result {
	s.values, s.valBits = nil, valbits
	open, closed := lt.classes(strike)
	switch {
	case closed:
		return s.inject(strike, lt.reachAny)
	case open:
		return s.inject(strike, lt.reach[classOpen])
	}
	s.reset()
	return Result{}
}
