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
// The sweep is sparse: a strike only ever disturbs the combinational
// fanout cone of the struck gates, so Inject drives a worklist bitset
// indexed by topological position instead of walking the whole
// netlist, resets only the nodes the previous run touched, and stops
// as soon as every surviving waveform has been swept past.
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
// (forks share the immutable topology tables and the cone-schedule
// cache).
type Simulator struct {
	nl    *netlist.Netlist
	dm    DelayModel
	order []netlist.NodeID

	// Immutable per-design tables, shared read-only across Fork.
	topoPos      []int32   // node -> position in order (-1 for non-comb)
	delays       []float64 // node -> cell propagation delay
	combFanout   [][]netlist.NodeID
	regFanout    [][]netlist.NodeID // node -> DFFs whose D input it drives
	maxFanoutPos []int32            // node -> furthest comb fanout position
	maxFanin     int
	// Struct-of-arrays mirror of the netlist cells, so the injection
	// sweep reads cell type and fanins from flat arrays instead of
	// walking netlist.Node pointers: node i's fanins live at
	// faninPool[faninOff[i]:faninOff[i+1]].
	cellTypes []netlist.CellType
	faninOff  []int32
	faninPool []netlist.NodeID

	// Per-run waveform state, reset via the touched list.
	waves   [][]Interval // indexed by node: current fault waveform
	dirty   []bool       // node was struck (own deposit to XOR in)
	touched []netlist.NodeID
	marked  []bool // node is on the touched list
	// waveBits mirrors len(waves[id]) > 0 one bit per node, so the
	// fanin scan of the sweep reads a dense L1-resident bitset instead
	// of scattered slice headers.
	waveBits []uint64
	// needPos is the sweep worklist: one bit per topological position,
	// marking nodes whose fanins' waves changed (struck seeds, plus the
	// fanouts of every node whose wave survived). The sparse sweep
	// consumes marks in position order and clears each as it visits, so
	// the set is empty again after every Inject.
	needPos []uint64

	// Scratch buffers reused across Inject calls.
	events  []float64
	argBuf  []uint64 // spill for cells with more than 8 fanins
	propBuf []Interval

	// Fault-free value source for the Inject in progress: either the
	// caller's values callback, or (InjectBits) a per-node bitset read
	// directly — the bitset path avoids an indirect call per fanin in
	// the propagate hot loop.
	values  func(netlist.NodeID) bool
	valBits []uint64

	// reference switches Inject to the dense full-order sweep; kept
	// for equivalence testing against the sparse fast path.
	reference bool
}

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
		nl:           nl,
		dm:           dm,
		order:        order,
		topoPos:      make([]int32, n),
		delays:       make([]float64, n),
		combFanout:   make([][]netlist.NodeID, n),
		regFanout:    make([][]netlist.NodeID, n),
		maxFanoutPos: make([]int32, n),
		waves:        make([][]Interval, n),
		dirty:        make([]bool, n),
		marked:       make([]bool, n),
		waveBits:     make([]uint64, (n+63)/64),
		needPos:      make([]uint64, (n+63)/64),
	}
	for i := range s.topoPos {
		s.topoPos[i] = -1
		s.maxFanoutPos[i] = -1
	}
	for pos, id := range order {
		s.topoPos[id] = int32(pos)
	}
	s.cellTypes = make([]netlist.CellType, n)
	s.faninOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		id := netlist.NodeID(i)
		node := nl.Node(id)
		s.delays[i] = dm.CellDelay[node.Type]
		s.cellTypes[i] = node.Type
		s.faninOff[i] = int32(len(s.faninPool))
		s.faninPool = append(s.faninPool, node.Fanin...)
		if l := len(node.Fanin); l > s.maxFanin {
			s.maxFanin = l
		}
	}
	s.faninOff[n] = int32(len(s.faninPool))
	for i, fos := range nl.Fanouts() {
		for _, fo := range fos {
			if nl.Node(fo).Type == netlist.DFF {
				s.regFanout[i] = append(s.regFanout[i], fo)
				continue
			}
			if s.topoPos[fo] >= 0 {
				s.combFanout[i] = append(s.combFanout[i], fo)
				if s.topoPos[fo] > s.maxFanoutPos[i] {
					s.maxFanoutPos[i] = s.topoPos[fo]
				}
			}
		}
	}
	if s.maxFanin > 8 {
		s.argBuf = make([]uint64, s.maxFanin)
	}
	return s, nil
}

// Fork returns an independent simulator over the same design: the
// immutable topology tables and the cone-schedule cache are shared, the
// waveform state and scratch buffers are private. Forks may be used
// concurrently with the parent and with each other.
func (s *Simulator) Fork() *Simulator {
	n := s.nl.NumNodes()
	c := &Simulator{
		nl:           s.nl,
		dm:           s.dm,
		order:        s.order,
		topoPos:      s.topoPos,
		delays:       s.delays,
		combFanout:   s.combFanout,
		regFanout:    s.regFanout,
		maxFanoutPos: s.maxFanoutPos,
		maxFanin:     s.maxFanin,
		cellTypes:    s.cellTypes,
		faninOff:     s.faninOff,
		faninPool:    s.faninPool,
		waves:        make([][]Interval, n),
		dirty:        make([]bool, n),
		marked:       make([]bool, n),
		waveBits:     make([]uint64, (n+63)/64),
		needPos:      make([]uint64, (n+63)/64),
		reference:    s.reference,
	}
	if s.maxFanin > 8 {
		c.argBuf = make([]uint64, s.maxFanin)
	}
	return c
}

// SetReferenceSweep switches Inject between the sparse fault-cone sweep
// (the default) and the dense full-netlist reference sweep that visits
// every combinational node on every call. The two produce bit-identical
// results; the reference exists for equivalence testing and debugging.
func (s *Simulator) SetReferenceSweep(on bool) { s.reference = on }

// Wave returns the fault waveform computed for a node by the most
// recent Inject call. The caller must not mutate it.
func (s *Simulator) Wave(id netlist.NodeID) []Interval { return s.waves[id] }

// ClockPeriod returns the delay model's cycle length.
func (s *Simulator) ClockPeriod() float64 { return s.dm.ClockPeriod }

// Delay returns the modeled delay of a node's cell.
func (s *Simulator) Delay(id netlist.NodeID) float64 { return s.delays[id] }

// touch puts a node on the list reset before the next Inject.
func (s *Simulator) touch(id netlist.NodeID) {
	if !s.marked[id] {
		s.marked[id] = true
		s.touched = append(s.touched, id)
	}
}

// Inject simulates one fault-injection cycle. values must return the
// fault-free logic value of every node during the cycle (typically the
// RTL simulator's post-Eval state). It returns which registers latch
// wrong values at the cycle's closing clock edge.
func (s *Simulator) Inject(values func(netlist.NodeID) bool, strike Strike) Result {
	s.values, s.valBits = values, nil
	return s.inject(strike)
}

// InjectBits is Inject with the fault-free values supplied as a dense
// bitset (bit id of valbits[id/64] is node id's value) instead of a
// callback. Results are identical; the bitset read replaces an
// indirect call per fanin in the propagation hot path.
func (s *Simulator) InjectBits(valbits []uint64, strike Strike) Result {
	s.values, s.valBits = nil, valbits
	return s.inject(strike)
}

// val reads one fault-free node value from whichever source the
// current Inject supplied.
func (s *Simulator) val(id netlist.NodeID) bool {
	if vb := s.valBits; vb != nil {
		return vb[id>>6]>>(uint(id)&63)&1 == 1
	}
	return s.values(id)
}

func (s *Simulator) inject(strike Strike) Result {
	// Targeted reset: only nodes the previous run disturbed hold state.
	for _, id := range s.touched {
		s.waves[id] = s.waves[id][:0]
		s.waveBits[id>>6] &^= 1 << (uint(id) & 63)
		// The sparse sweep leaves needPos empty; this clear only
		// matters for the dense reference sweep, which ignores marks.
		if p := s.topoPos[id]; p >= 0 {
			s.needPos[p>>6] &^= 1 << (uint(p) & 63)
		}
		s.dirty[id] = false
		s.marked[id] = false
	}
	s.touched = s.touched[:0]
	if strike.Widths != nil && len(strike.Widths) != len(strike.Gates) {
		panic(fmt.Sprintf("timingsim: %d widths for %d gates", len(strike.Widths), len(strike.Gates)))
	}
	for i, g := range strike.Gates {
		node := s.nl.Node(g)
		if !node.Type.IsCombinational() || node.Type == netlist.Const0 || node.Type == netlist.Const1 {
			continue
		}
		iv := Interval{Start: strike.Time, End: strike.Time + strike.widthAt(i)}
		if iv.Width() < s.dm.MinPulse {
			continue
		}
		if len(s.waves[g]) == 0 {
			s.waves[g] = append(s.waves[g], iv)
		} else {
			s.waves[g] = xorIntervals(s.waves[g], []Interval{iv})
		}
		if len(s.waves[g]) > 0 {
			s.waveBits[g>>6] |= 1 << (uint(g) & 63)
		} else {
			s.waveBits[g>>6] &^= 1 << (uint(g) & 63)
		}
		s.dirty[g] = true
		p := s.topoPos[g]
		s.needPos[p>>6] |= 1 << (uint(p) & 63)
		s.touch(g)
	}

	var res Result
	if s.reference {
		for _, id := range s.order {
			s.evalNode(id, &res)
		}
	} else {
		s.sweepSparse(&res)
	}
	s.latchCheck(&res)
	slices.Sort(res.FlippedRegs) // reflection-free; this runs once per draw
	return res
}

// sweepSparse propagates the strike through the fanout cones of the
// struck gates only, by walking the needPos worklist bitset in
// topological-position order: struck seeds are pre-marked, every node
// whose wave survives marks its combinational fanouts, and the walk
// ends once it passes the furthest position any surviving waveform can
// still reach (maxReach) — beyond it every remaining node has
// fault-free fanins. Evaluation order (topo position) and the
// evaluated live set match a full cone-schedule walk, so results are
// identical; the bitset walk just skips the dead nodes of the cone
// without touching them.
func (s *Simulator) sweepSparse(res *Result) {
	if len(s.touched) == 0 { // only seeded gates are touched so far
		return
	}
	minPos, maxReach := int32(1)<<30, int32(-1)
	for _, g := range s.touched {
		p := s.topoPos[g]
		if p < minPos {
			minPos = p
		}
		if p > maxReach {
			maxReach = p
		}
	}
	need := s.needPos
	order := s.order
	//hot
	for w := int(minPos >> 6); ; {
		word := need[w]
		if word == 0 {
			// Marks never land past maxReach: marking a node's fanouts
			// always extends maxReach to at least their positions.
			w++
			if int32(w)<<6 > maxReach {
				return
			}
			continue
		}
		b := bits.TrailingZeros64(word)
		need[w] = word &^ (1 << uint(b))
		id := order[w<<6|b]
		s.evalNode(id, res)
		if len(s.waves[id]) > 0 {
			for _, fo := range s.combFanout[id] {
				p := s.topoPos[fo]
				need[p>>6] |= 1 << (uint(p) & 63)
			}
			if mf := s.maxFanoutPos[id]; mf > maxReach {
				maxReach = mf
			}
		}
	}
}

// evalNode (re)evaluates one combinational node of the sweep: if any
// fanin carries a waveform the output response is propagated and
// conditioned; a struck node XORs its own deposit with the response.
// The fanin scan reads the flat SoA pool and is shared with propagate
// (which fanin carries a waveform is decided exactly once per node).
func (s *Simulator) evalNode(id netlist.NodeID, res *Result) {
	fi := s.faninPool[s.faninOff[id]:s.faninOff[id+1]]
	waved, wi := 0, -1
	wb := s.waveBits
	for j, f := range fi {
		if wb[f>>6]>>(uint(f)&63)&1 != 0 {
			waved++
			wi = j
		}
	}
	if waved > 0 {
		prop := s.propagate(id, s.cellTypes[id], fi, waved, wi)
		prop = conditionWith(prop, s.delays[id], s.dm.Attenuation, s.dm.MinPulse)
		if s.dirty[id] {
			// Struck gate: its own deposited pulse is combined
			// with whatever arrives through its inputs.
			s.waves[id] = xorIntervals(s.waves[id], prop)
		} else {
			s.waves[id] = append(s.waves[id][:0], prop...)
		}
	}
	if len(s.waves[id]) > 0 {
		wb[id>>6] |= 1 << (uint(id) & 63)
		res.ActiveGates++
		s.touch(id)
	} else {
		wb[id>>6] &^= 1 << (uint(id) & 63)
	}
}

// latchCheck performs the latching decision per register whose D input
// carries a transient. Clock-gated registers whose enable is low this
// cycle require a much wider transient (direct storage-node upset
// instead of a clocked capture).
func (s *Simulator) latchCheck(res *Result) {
	gf := s.dm.GatedWindowFactor
	if gf < 1 {
		gf = 1
	}
	//hot
	for _, d := range s.touched {
		w := s.waves[d]
		if len(w) == 0 {
			continue
		}
		for _, r := range s.regFanout[d] {
			node := s.nl.Node(r)
			res.ReachedRegs++
			setup, hold := s.dm.Setup, s.dm.Hold
			if node.En != netlist.Invalid && !s.val(node.En) {
				setup *= gf
				hold *= gf
			}
			winStart := s.dm.ClockPeriod - setup
			winEnd := s.dm.ClockPeriod + hold
			for _, iv := range w {
				if iv.Start <= winStart && iv.End >= winEnd {
					res.FlippedRegs = append(res.FlippedRegs, r) //alloc-ok (result slice, reset per Inject)
					break
				}
			}
		}
	}
}

// propagate computes the fault waveform at a gate's output (before
// delay/attenuation) from its fanin waveforms by sweeping the combined
// event points: within each span between events, every fanin has a
// constant flip state, so the output flip state is one cell evaluation
// against the fault-free values. Cell evaluation is lane-wise bitwise
// (the 64-lane logic simulator runs on the same EvalCell), so up to 64
// spans are evaluated per call: lane k carries span k's input state —
// the fault-free value broadcast, XORed with the span's flip bit. The
// returned slice is scratch owned by the simulator, valid until the
// next propagate call. t and fi are the node's cell type and flat
// fanin list; waved and wi are the caller's fanin-scan results (how
// many fanins carry a waveform, and the index of the last one).
func (s *Simulator) propagate(id netlist.NodeID, t netlist.CellType, fi []netlist.NodeID, waved, wi int) []Interval {
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
		for j, f := range fi {
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
		out := s.propBuf[:0]
		if (outw^outw>>1)&1 == 1 {
			for _, iv := range s.waves[fi[wi]] {
				out = appendMerged(out, iv)
			}
		}
		s.propBuf = out
		return out
	}

	// Gather event points.
	events := s.events[:0]
	for _, f := range fi {
		for _, iv := range s.waves[f] {
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
	if s.val(id) {
		nominalOut = ^uint64(0)
	}
	out := s.propBuf[:0]
	spans := len(events) - 1
	// Evaluate within each span [events[k], events[k+1]), 64 at a time.
	//hot
	for chunk := 0; chunk < spans; chunk += 64 {
		n := spans - chunk
		if n > 64 {
			n = 64
		}
		for j, f := range fi {
			base := uint64(0)
			if s.val(f) {
				base = ^uint64(0)
			}
			if w := s.waves[f]; len(w) > 0 {
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
	s.propBuf = out
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
