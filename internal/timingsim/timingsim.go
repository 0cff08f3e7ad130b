// Package timingsim implements the gate-level half of the cross-level
// flow: a timed simulation of the single fault-injection cycle. A
// radiation strike deposits voltage transients at the struck gates; the
// transients propagate through sensitized paths (with electrical
// masking), and a register captures a wrong value when a surviving
// transient satisfies its setup/hold window at the capturing clock edge.
//
// The algorithm follows the Monte Carlo SEU flow of Li et al. (DAC'16,
// reference [16] of the paper): fault waveforms are represented as sets
// of disjoint time intervals during which a net differs from its
// fault-free value, and are swept through the netlist in topological
// order.
//
// The sweep is sparse and indexed by topological position: a strike
// only ever disturbs the combinational fanout cone of the struck gates,
// so the kernel drives a worklist bitset over positions instead of
// walking the whole netlist, keeps one record and all sweep state per
// position, resets only the positions the previous run touched, and
// stops as soon as every surviving waveform has been swept past. A
// cell whose transient arrives on a lone fanin — most visited cells —
// decides whether it passes from its flip table: one bit per subset of
// its fanins, set when flipping exactly those fanins flips the output
// under the cycle's fault-free values.
//
// A CycleTable, built per injection cycle, holds the cycle's values,
// the flip table of every cell and a LatchTable: a static pre-check in
// front of the sweep, shared by the cycles with the same
// register-enable pattern. From per-node path-delay bounds it proves
// for most masked strikes that no transient can reach a register's
// latching window, and InjectPruned sweeps the rest only where a
// register that can still latch is reachable, without changing which
// registers latch.
package timingsim

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/netlist"
)

// DelayModel holds the timing parameters of the synthetic standard-cell
// library, in picoseconds.
type DelayModel struct {
	// CellDelay maps each cell type to its propagation delay.
	CellDelay map[netlist.CellType]float64
	// ClockPeriod is the cycle length; registers capture at this time.
	ClockPeriod float64
	// Setup and Hold bound the latching window around the capture
	// edge: a transient is latched only if it spans
	// [ClockPeriod-Setup, ClockPeriod+Hold].
	Setup, Hold float64
	// Attenuation is the pulse-width loss per traversed gate
	// (electrical masking).
	Attenuation float64
	// MinPulse is the narrowest pulse that still propagates; anything
	// narrower is absorbed.
	MinPulse float64
	// GatedWindowFactor widens the setup/hold capture requirement for
	// clock-gated registers whose enable is low in the injection
	// cycle: with the clock gated off, only a transient wide and
	// strong enough to upset the storage cell directly is captured.
	// 1 disables the distinction.
	GatedWindowFactor float64
}

// DefaultDelayModel returns timing representative of a mature planar
// node (~90 nm class): 1 ns cycle, gate delays of tens of ps.
func DefaultDelayModel() DelayModel {
	return DelayModel{
		CellDelay: map[netlist.CellType]float64{
			netlist.Buf:  8,
			netlist.Inv:  5,
			netlist.And:  11,
			netlist.Nand: 9,
			netlist.Or:   11,
			netlist.Nor:  9,
			netlist.Xor:  15,
			netlist.Xnor: 15,
			netlist.Mux2: 17,
		},
		ClockPeriod:       600,
		Setup:             25,
		Hold:              10,
		Attenuation:       6,
		MinPulse:          12,
		GatedWindowFactor: 12,
	}
}

// Interval is a half-open time span [Start, End) during which a net is
// inverted relative to its fault-free value.
type Interval struct {
	Start, End float64
}

// Width returns the interval duration.
func (iv Interval) Width() float64 { return iv.End - iv.Start }

// Strike describes one radiation-induced transient injection: the gates
// hit, when within the cycle the particle arrives, and the deposited
// pulse width. Widths, when non-nil, gives a per-gate deposit width
// (parallel to Gates) — charge sharing decays away from the strike
// center, and unequal deposits prevent the exact cancellation that
// identical pulses on series gates would produce.
type Strike struct {
	Gates  []netlist.NodeID
	Time   float64
	Width  float64
	Widths []float64
}

// widthAt returns the deposit width for the i-th struck gate.
func (st Strike) widthAt(i int) float64 {
	if st.Widths != nil {
		return st.Widths[i]
	}
	return st.Width
}

// Result reports the outcome of simulating one injection cycle.
type Result struct {
	// FlippedRegs lists registers that latched a wrong value, sorted
	// by id.
	FlippedRegs []netlist.NodeID
	// ActiveGates counts gates whose output carried at least one
	// fault interval (a measure of transient spread).
	ActiveGates int
	// ReachedRegs counts registers whose D input saw any transient,
	// latched or not (logical reach before temporal masking).
	ReachedRegs int
}

// Simulator performs timed injection-cycle evaluation over a fixed
// netlist. It is not safe for concurrent use; Fork one per goroutine
// (forks share the immutable topology and the sweep kernel's records).
type Simulator struct {
	nl    *netlist.Netlist
	dm    DelayModel
	order []netlist.NodeID

	// Immutable per-design tables, shared read-only across Fork.
	topoPos []int32 // node -> position in order (-1 for non-comb)
	// The sweep kernel: cells[p] is the record of topological position
	// p, and cells[len(order)] is a sentinel closing the last record's
	// pool ranges. faninPos and faninID (parallel), fanouts and regs are
	// the pools the records index.
	cells []cell
	// faninPos holds each fanin's topological position, which holds
	// its wave; a node that is not combinational never carries one and
	// gets position len(order), past every cell, whose wave stays
	// empty. faninID holds the fanin node, whose fault-free value the
	// cell reads.
	faninPos []int32
	faninID  []netlist.NodeID
	// fanouts holds each cell's combinational fanout positions in
	// increasing order, so a cell's furthest fanout is its last.
	fanouts []int32
	regs    []regFanout
	// cellDelay is the propagation delay by cell type.
	cellDelay []float64
	maxFanin  int
	// full is the sweep mask of the unpruned sweep: every topological
	// position set (InjectPruned passes a LatchTable's mask instead).
	full []uint64

	// Per-run sweep state, indexed by topological position and reset
	// via the touched list. waves[p] locates p's current fault waveform
	// in arena, which holds every waveform of the run.
	waves []span
	arena []Interval
	// hasWave mirrors waves[p].n > 0, so the fanin scan reads a dense
	// L1-resident bitset.
	hasWave []uint64
	struck  []bool // p was struck (own deposit to XOR in)
	// touched lists the struck positions, then every other visited
	// position left with a wave: every position holding state.
	touched []int32
	// need is the kernel's worklist, one bit per position: struck
	// seeds, plus the fanouts of every cell whose wave survived. The
	// kernel consumes marks in position order and clears each as it
	// visits, so the set is empty again after every call.
	need []uint64

	// Scratch buffers reused across Inject calls.
	events []float64
	argBuf []uint64 // spill for cells with more than 8 fanins

	// Fault-free value source for the Inject in progress: either the
	// caller's values callback, or a per-node bitset read directly —
	// the bitset path avoids an indirect call per value read.
	values  func(netlist.NodeID) bool
	valBits []uint64
	// flips is the injection cycle's flip table, one byte per position
	// (InjectPruned); nil makes the kernel compute the table of each
	// cell it evaluates from the values.
	flips []uint8

	// reference switches Inject to the dense full-order sweep; kept
	// for equivalence testing against the kernel.
	reference bool
}

// cell is the sweep kernel's record of one topological position. Its
// fanins, combinational fanouts and register fanouts are the pool
// entries from its offsets up to the next record's.
type cell struct {
	// in repeats the positions of a narrow cell's fanins, padded with
	// the never-waved position len(order), so the fanin scan is three
	// fixed bit reads.
	in                  [maxTableFanin]int32
	fanin, fanout, regs int32
	typ                 netlist.CellType
	// wide marks a cell with more than maxTableFanin fanins: it has
	// no flip table, and in is unused.
	wide bool
}

// span locates a waveform in the simulator's arena.
type span struct {
	off, n int32
}

// regFanout is a register whose D input a cell drives, with its clock
// enable (netlist.Invalid when the register is ungated).
type regFanout struct {
	id, en netlist.NodeID
}

// maxTableFanin is the widest cell a flip table covers: one bit per
// subset of at most three fanins fills a byte. Wider cells are
// evaluated with netlist.EvalCell over the fault-free values.
const maxTableFanin = 3

// subsetLanes[j] sets lane m for every fanin subset m that contains
// fanin j, so lane m of one 8-lane cell evaluation flips exactly the
// fanins in m.
var subsetLanes = [maxTableFanin]uint64{0xAA, 0xCC, 0xF0}

// New builds a timed simulator. The netlist must be valid.
func New(nl *netlist.Netlist, dm DelayModel) (*Simulator, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	if dm.ClockPeriod <= 0 {
		return nil, fmt.Errorf("timingsim: non-positive clock period %v", dm.ClockPeriod)
	}
	n := nl.NumNodes()
	s := &Simulator{
		nl:        nl,
		dm:        dm,
		order:     order,
		topoPos:   make([]int32, n),
		cells:     make([]cell, len(order)+1),
		cellDelay: make([]float64, netlist.DFF+1),
	}
	for t := range s.cellDelay {
		s.cellDelay[t] = dm.CellDelay[netlist.CellType(t)]
	}
	for i := range s.topoPos {
		s.topoPos[i] = -1
	}
	for pos, id := range order {
		s.topoPos[id] = int32(pos)
	}
	never := int32(len(order))
	fanouts := nl.Fanouts()
	for p, id := range order {
		node := nl.Node(id)
		c := cell{
			in:     [maxTableFanin]int32{never, never, never},
			fanin:  int32(len(s.faninPos)),
			fanout: int32(len(s.fanouts)),
			regs:   int32(len(s.regs)),
			typ:    node.Type,
			wide:   len(node.Fanin) > maxTableFanin,
		}
		for j, f := range node.Fanin {
			q := s.topoPos[f]
			if q < 0 {
				q = never
			}
			if j < maxTableFanin {
				c.in[j] = q
			}
			s.faninPos = append(s.faninPos, q)
			s.faninID = append(s.faninID, f)
		}
		s.cells[p] = c
		s.maxFanin = max(s.maxFanin, len(node.Fanin))
		start := len(s.fanouts)
		for _, fo := range fanouts[id] {
			if fn := nl.Node(fo); fn.Type == netlist.DFF {
				s.regs = append(s.regs, regFanout{id: fo, en: fn.En})
			} else if q := s.topoPos[fo]; q >= 0 {
				s.fanouts = append(s.fanouts, q)
			}
		}
		slices.Sort(s.fanouts[start:])
	}
	s.cells[len(order)] = cell{fanin: int32(len(s.faninPos)), fanout: int32(len(s.fanouts)), regs: int32(len(s.regs))}
	s.full = make([]uint64, (n+63)/64)
	for w := range s.full {
		s.full[w] = ^uint64(0)
	}
	s.initState()
	return s, nil
}

// initState allocates the per-run sweep state and scratch.
func (s *Simulator) initState() {
	words := (len(s.order) + 63) / 64
	// One more position for the never-waved fanin position.
	s.waves = make([]span, len(s.order)+1)
	s.hasWave = make([]uint64, (len(s.order)+64)/64)
	s.struck = make([]bool, len(s.order))
	s.need = make([]uint64, words)
	if s.maxFanin > 8 {
		s.argBuf = make([]uint64, s.maxFanin)
	}
}

// Fork returns an independent simulator over the same design: the
// immutable topology and kernel records are shared, the waveform state
// and scratch buffers are private. Forks may be used concurrently with
// the parent and with each other.
func (s *Simulator) Fork() *Simulator {
	c := &Simulator{
		nl:        s.nl,
		dm:        s.dm,
		order:     s.order,
		topoPos:   s.topoPos,
		cells:     s.cells,
		faninPos:  s.faninPos,
		faninID:   s.faninID,
		fanouts:   s.fanouts,
		regs:      s.regs,
		cellDelay: s.cellDelay,
		maxFanin:  s.maxFanin,
		full:      s.full,
		reference: s.reference,
	}
	c.initState()
	return c
}

// SetReferenceSweep switches Inject between the sparse kernel (the
// default) and the dense reference sweep, which visits every
// combinational node on every call and evaluates each cell with
// netlist.EvalCell over the fault-free values, reading no flip table.
// The two produce bit-identical results; the reference exists for
// equivalence testing and debugging.
func (s *Simulator) SetReferenceSweep(on bool) { s.reference = on }

// Wave returns the fault waveform computed for a node by the most
// recent Inject call. The caller must not mutate it.
func (s *Simulator) Wave(id netlist.NodeID) []Interval {
	if p := s.topoPos[id]; p >= 0 {
		return s.wave(p)
	}
	return nil
}

// wave returns position p's waveform in the arena, capped so that no
// append can reach another waveform.
func (s *Simulator) wave(p int32) []Interval {
	w := s.waves[p]
	return s.arena[w.off : w.off+w.n : w.off+w.n]
}

// setWave appends w to the arena as position p's waveform.
func (s *Simulator) setWave(p int32, w []Interval) {
	s.waves[p] = span{off: int32(len(s.arena)), n: int32(len(w))}
	s.arena = append(s.arena, w...)
}

// ClockPeriod returns the delay model's cycle length.
func (s *Simulator) ClockPeriod() float64 { return s.dm.ClockPeriod }

// Delay returns the modeled delay of a node's cell.
func (s *Simulator) Delay(id netlist.NodeID) float64 { return s.cellDelay[s.nl.Node(id).Type] }

// Inject simulates one fault-injection cycle. values must return the
// fault-free logic value of every node during the cycle (typically the
// RTL simulator's post-Eval state). It returns which registers latch
// wrong values at the cycle's closing clock edge.
func (s *Simulator) Inject(values func(netlist.NodeID) bool, strike Strike) Result {
	s.values, s.valBits, s.flips = values, nil, nil
	return s.inject(strike, s.full)
}

// InjectBits is Inject with the fault-free values supplied as a dense
// bitset (bit id of valbits[id/64] is node id's value) instead of a
// callback. Results are identical; the bitset read replaces an
// indirect call per value read.
func (s *Simulator) InjectBits(valbits []uint64, strike Strike) Result {
	s.values, s.valBits, s.flips = nil, valbits, nil
	return s.inject(strike, s.full)
}

// val reads one fault-free node value from whichever source the
// current Inject supplied.
func (s *Simulator) val(id netlist.NodeID) bool {
	if vb := s.valBits; vb != nil {
		return vb[id>>6]>>(uint(id)&63)&1 == 1
	}
	return s.values(id)
}

// reset clears the state of the previous run. The reset is targeted:
// only the positions the previous run touched hold state.
func (s *Simulator) reset() {
	for _, p := range s.touched {
		s.waves[p] = span{}
		s.hasWave[p>>6] &^= 1 << (uint(p) & 63)
		s.struck[p] = false
	}
	s.touched = s.touched[:0]
	s.arena = s.arena[:0]
}

// inject runs one injection cycle over the positions set in mask: only
// they are seeded and swept.
func (s *Simulator) inject(strike Strike, mask []uint64) Result {
	s.reset()
	if strike.Widths != nil && len(strike.Widths) != len(strike.Gates) {
		panic(fmt.Sprintf("timingsim: %d widths for %d gates", len(strike.Widths), len(strike.Gates)))
	}
	for i, g := range strike.Gates {
		p := s.topoPos[g]
		if p < 0 {
			continue // not combinational
		}
		if t := s.cells[p].typ; t == netlist.Const0 || t == netlist.Const1 {
			continue
		}
		iv := Interval{Start: strike.Time, End: strike.Time + strike.widthAt(i)}
		if iv.Width() < s.dm.MinPulse {
			continue
		}
		if mask[p>>6]>>(uint(p)&63)&1 == 0 {
			continue
		}
		if w := s.wave(p); len(w) == 0 {
			s.setWave(p, []Interval{iv})
		} else {
			s.setWave(p, xorIntervals(w, []Interval{iv}))
		}
		if s.waves[p].n > 0 {
			s.hasWave[p>>6] |= 1 << (uint(p) & 63)
		} else {
			s.hasWave[p>>6] &^= 1 << (uint(p) & 63)
		}
		if !s.struck[p] {
			s.struck[p] = true
			s.touched = append(s.touched, p)
		}
	}

	var res Result
	if s.reference {
		for p := range s.order {
			if mask[p>>6]>>(uint(p)&63)&1 != 0 {
				s.visit(int32(p), &res)
			}
		}
	} else {
		s.sweep(&res, mask)
	}
	slices.Sort(res.FlippedRegs) // reflection-free; this runs once per draw
	return res
}

// sweep is the kernel: it propagates the strike through the fanout
// cones of the struck gates only, walking the need worklist in
// topological-position order. Struck seeds are marked first, every
// cell whose wave survives marks its combinational fanouts within mask,
// and the walk ends once it passes the furthest position any surviving
// wave can still reach (maxReach): beyond it every remaining cell has
// fault-free fanins. Evaluation order (topological position) and the
// evaluated live set match the dense reference sweep's, so results are
// identical; the bitset walk just skips the dead cells of the cone
// without touching them.
func (s *Simulator) sweep(res *Result, mask []uint64) {
	if len(s.touched) == 0 { // only struck seeds are touched so far
		return
	}
	need := s.need
	minPos, maxReach := int32(len(s.order)), int32(-1)
	for _, p := range s.touched {
		need[p>>6] |= 1 << (uint(p) & 63)
		minPos = min(minPos, p)
		maxReach = max(maxReach, p)
	}
	cells, fanouts := s.cells, s.fanouts
	//hot
	for w := int(minPos >> 6); ; {
		word := need[w]
		if word == 0 {
			// Marks never land past maxReach: marking a cell's fanouts
			// always extends maxReach to at least their positions.
			w++
			if int32(w)<<6 > maxReach {
				return
			}
			continue
		}
		b := bits.TrailingZeros64(word)
		need[w] = word &^ (1 << uint(b))
		p := int32(w<<6 | b)
		if !s.visit(p, res) {
			continue
		}
		if fo := fanouts[cells[p].fanout:cells[p+1].fanout]; len(fo) > 0 {
			for _, q := range fo {
				need[q>>6] |= mask[q>>6] & (1 << (uint(q) & 63))
			}
			maxReach = max(maxReach, fo[len(fo)-1])
		}
	}
}

// visit (re)evaluates the cell at position p: if any fanin carries a
// wave, the output response is propagated and conditioned, and a
// struck cell XORs its own deposit with the response. A surviving wave
// is checked against the latching window of every register the cell
// drives. It reports whether p ends with a wave.
//
// The kernel decides a lone waved fanin j from the cell's flip table:
// it flips the output exactly when bit {j} differs from bit {} — the
// cell's output with fanin j flipped against its own fault-free
// evaluation — and then the response is the fanin's wave. Several
// waved fanins, the reference sweep and cells too wide for a table
// evaluate with propagate instead.
func (s *Simulator) visit(p int32, res *Result) bool {
	c, next := &s.cells[p], &s.cells[p+1]
	hw := s.hasWave
	// The response is built at the arena's end: no waveform lives
	// there yet.
	prop := s.arena[len(s.arena):]
	waved := false
	if s.reference || c.wide {
		fi := s.faninPos[c.fanin:next.fanin]
		n, wi := 0, -1
		for j, q := range fi {
			if hw[q>>6]>>(uint(q)&63)&1 != 0 {
				n++
				wi = j
			}
		}
		if waved = n > 0; waved {
			prop = s.propagate(prop, p, n, wi)
		}
	} else if m := hw[c.in[0]>>6]>>(uint(c.in[0])&63)&1 |
		hw[c.in[1]>>6]>>(uint(c.in[1])&63)&1<<1 |
		hw[c.in[2]>>6]>>(uint(c.in[2])&63)&1<<2; m != 0 {
		// m is the set of waved fanins.
		waved = true
		if m&(m-1) != 0 {
			prop = s.propagate(prop, p, 2, 0) // wi is unused for several
		} else if tab := s.flipTable(p); (tab>>m^tab)&1 != 0 {
			for _, iv := range s.wave(c.in[bits.TrailingZeros64(m)]) {
				prop = appendMerged(prop, iv)
			}
		}
	}
	if waved {
		prop = conditionWith(prop, s.cellDelay[c.typ], s.dm.Attenuation, s.dm.MinPulse)
		if s.struck[p] {
			// Struck gate: its own deposited pulse is combined with
			// whatever arrives through its inputs.
			prop = xorIntervals(s.wave(p), prop)
		}
		s.setWave(p, prop)
	}
	w := s.wave(p)
	if len(w) == 0 {
		hw[p>>6] &^= 1 << (uint(p) & 63)
		return false
	}
	hw[p>>6] |= 1 << (uint(p) & 63)
	res.ActiveGates++
	if !s.struck[p] {
		s.touched = append(s.touched, p)
	}
	if regs := s.regs[c.regs:next.regs]; len(regs) > 0 {
		s.latch(w, regs, res)
	}
	return true
}

// flipTable returns the flip table of the cell at position p, which has
// at most maxTableFanin fanins: the injection cycle's when InjectPruned
// supplied one, otherwise computed from the values.
func (s *Simulator) flipTable(p int32) uint8 {
	if s.flips != nil {
		return s.flips[p]
	}
	return s.evalFlipTable(p)
}

// evalFlipTable computes the flip table of the cell at position p from
// the fault-free values: bit m is set when the cell's output, with
// exactly the fanins in subset m flipped, differs from the node's own
// value. One 8-lane evaluation computes every subset. Bit {} is set
// only when the values are not a consistent evaluation.
func (s *Simulator) evalFlipTable(p int32) uint8 {
	c := &s.cells[p]
	fi := s.faninID[c.fanin:s.cells[p+1].fanin]
	var in [maxTableFanin]uint64
	for j, f := range fi {
		in[j] = subsetLanes[j]
		if s.val(f) {
			in[j] = ^in[j]
		}
	}
	out := netlist.EvalCell(c.typ, in[:len(fi)])
	if s.val(s.order[p]) {
		out = ^out
	}
	return uint8(out)
}

// latch performs the latching decision for the registers whose D
// input carries wave w. Clock-gated registers whose enable is low this
// cycle require a much wider transient (direct storage-node upset
// instead of a clocked capture).
func (s *Simulator) latch(w []Interval, regs []regFanout, res *Result) {
	gf := s.dm.GatedWindowFactor
	if gf < 1 {
		gf = 1
	}
	//hot
	for _, r := range regs {
		res.ReachedRegs++
		setup, hold := s.dm.Setup, s.dm.Hold
		if r.en != netlist.Invalid && !s.val(r.en) {
			setup *= gf
			hold *= gf
		}
		winStart := s.dm.ClockPeriod - setup
		winEnd := s.dm.ClockPeriod + hold
		for _, iv := range w {
			if iv.Start <= winStart && iv.End >= winEnd {
				res.FlippedRegs = append(res.FlippedRegs, r.id) //alloc-ok (result slice, reset per Inject)
				break
			}
		}
	}
}

// propagate computes the fault waveform at a cell's output (before
// delay/attenuation) from its fanin waveforms by sweeping the combined
// event points: within each span between events, every fanin has a
// constant flip state, so the output flip state is one cell evaluation
// against the fault-free values. Cell evaluation is lane-wise bitwise
// (the 64-lane logic simulator runs on the same EvalCell), so up to 64
// spans are evaluated per call: lane k carries span k's input state —
// the fault-free value broadcast, XORed with the span's flip bit. The
// response is appended to out. waved and wi are the caller's
// fanin-scan results (how many fanins carry a waveform, and the index
// of the last one).
func (s *Simulator) propagate(out []Interval, p int32, waved, wi int) []Interval {
	c := &s.cells[p]
	t := c.typ
	fi := s.faninPos[c.fanin:s.cells[p+1].fanin]
	ids := s.faninID[c.fanin:s.cells[p+1].fanin]
	var in [8]uint64
	args := in[:]
	if len(fi) > len(in) {
		args = s.argBuf
	}
	args = args[:len(fi)]
	if waved == 1 {
		// Exactly one fanin carries a waveform, so its flip state is
		// the only thing that varies across spans: either it
		// sensitizes the output (every span flips — the output
		// waveform is the fanin's, with touching intervals coalesced)
		// or it doesn't (no output response). One two-lane cell
		// evaluation decides which: lane 0 is the fault-free input
		// state, lane 1 flips the waved fanin.
		for j, f := range ids {
			base := uint64(0)
			if s.val(f) {
				base = ^uint64(0)
			}
			if j == wi {
				base ^= 2
			}
			args[j] = base
		}
		outw := netlist.EvalCell(t, args)
		if (outw^outw>>1)&1 == 1 {
			for _, iv := range s.wave(fi[wi]) {
				out = appendMerged(out, iv)
			}
		}
		return out
	}

	// Gather event points.
	events := s.events[:0]
	for _, q := range fi {
		for _, iv := range s.wave(q) {
			events = append(events, iv.Start, iv.End)
		}
	}
	s.events = events
	sort.Float64s(events)
	events = dedupFloats(events)

	// The fault-free output needs no evaluation: values is the
	// consistent post-Eval state, so the node's own recorded value is
	// its cell function over the recorded fanin values.
	nominalOut := uint64(0)
	if s.val(s.order[p]) {
		nominalOut = ^uint64(0)
	}
	spans := len(events) - 1
	// Evaluate within each span [events[k], events[k+1]), 64 at a time.
	//hot
	for chunk := 0; chunk < spans; chunk += 64 {
		n := spans - chunk
		if n > 64 {
			n = 64
		}
		for j, f := range ids {
			base := uint64(0)
			if s.val(f) {
				base = ^uint64(0)
			}
			if w := s.wave(fi[j]); len(w) > 0 {
				for k := 0; k < n; k++ {
					mid := (events[chunk+k] + events[chunk+k+1]) / 2
					if covered(w, mid) {
						base ^= 1 << uint(k)
					}
				}
			}
			args[j] = base
		}
		flipped := netlist.EvalCell(t, args) ^ nominalOut
		for k := 0; k < n; k++ {
			if flipped>>uint(k)&1 == 1 {
				out = appendMerged(out, Interval{events[chunk+k], events[chunk+k+1]})
			}
		}
	}
	return out
}

// conditionWith applies gate delay and electrical masking (pulse-width
// attenuation with a minimum propagatable width) to a waveform.
func conditionWith(w []Interval, delay, att, minPulse float64) []Interval {
	out := w[:0]
	for _, iv := range w {
		width := iv.Width() - att
		if width < minPulse {
			continue
		}
		out = append(out, Interval{Start: iv.Start + delay, End: iv.Start + delay + width})
	}
	return out
}

func covered(w []Interval, t float64) bool {
	for _, iv := range w {
		if t >= iv.Start && t < iv.End {
			return true
		}
	}
	return false
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// appendMerged appends iv, coalescing with the previous interval when
// they touch.
func appendMerged(w []Interval, iv Interval) []Interval {
	if n := len(w); n > 0 && w[n-1].End >= iv.Start {
		if iv.End > w[n-1].End {
			w[n-1].End = iv.End
		}
		return w
	}
	return append(w, iv)
}

// xorIntervals returns the symmetric difference of two disjoint sorted
// interval sets: spans covered by exactly one of them.
func xorIntervals(a, b []Interval) []Interval {
	if len(a) == 0 {
		return append([]Interval(nil), b...)
	}
	if len(b) == 0 {
		return append([]Interval(nil), a...)
	}
	type edge struct {
		t     float64
		delta int
	}
	var edges []edge
	for _, iv := range a {
		edges = append(edges, edge{iv.Start, 1}, edge{iv.End, -1})
	}
	for _, iv := range b {
		edges = append(edges, edge{iv.Start, 2}, edge{iv.End, -2})
	}
	slices.SortFunc(edges, func(a, b edge) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		}
		return 0
	})
	var out []Interval
	inA, inB := 0, 0
	prev := edges[0].t
	for _, e := range edges {
		if e.t > prev && (inA > 0) != (inB > 0) {
			out = appendMerged(out, Interval{prev, e.t})
		}
		switch e.delta {
		case 1:
			inA++
		case -1:
			inA--
		case 2:
			inB++
		case -2:
			inB--
		}
		prev = e.t
	}
	return out
}
