package logicsim

import (
	"fmt"

	"repro/internal/netlist"
)

// Trace records the logic value of every node over a run of consecutive
// cycles, stored as one bitset per node (bit c = value at cycle c). The
// pre-characterization derives switching signatures from it.
type Trace struct {
	nl     *netlist.Netlist
	cycles int
	bits   [][]uint64
}

// NewTrace allocates an empty trace for the given cycle count; callers
// fill it with RecordAll / RecordSources while driving the simulator
// themselves (e.g. from within a SoC co-simulation step).
func NewTrace(nl *netlist.Netlist, cycles int) *Trace {
	t := &Trace{nl: nl, cycles: cycles, bits: make([][]uint64, nl.NumNodes())}
	for i := range t.bits {
		t.bits[i] = make([]uint64, words(cycles))
	}
	return t
}

// NumCycles returns the number of recorded cycles.
func (t *Trace) NumCycles() int { return t.cycles }

// Value reports the logic value of a node at a cycle.
func (t *Trace) Value(id netlist.NodeID, cycle int) bool {
	if cycle < 0 || cycle >= t.cycles {
		panic(fmt.Sprintf("logicsim: trace cycle %d out of range [0,%d)", cycle, t.cycles))
	}
	return t.bits[id][cycle/64]>>uint(cycle%64)&1 == 1
}

// ValueBits returns the raw value bitset of a node (bit c = value at
// cycle c). The caller must not mutate it.
func (t *Trace) ValueBits(id netlist.NodeID) []uint64 { return t.bits[id] }

// RecordAll stores lane 0 of every node as the given cycle's values.
// The simulator must be post-Eval for the cycle.
func (t *Trace) RecordAll(sim *Simulator, cycle int) {
	t.checkCycle(cycle)
	w, b := cycle/64, uint(cycle%64)
	for i := range t.bits {
		if sim.vals[i]&1 == 1 {
			t.bits[i][w] |= 1 << b
		}
	}
}

// RecordSources stores lane 0 of only the inputs and registers; pair
// with FillCombParallel to recover the gate values 64 cycles at a time.
func (t *Trace) RecordSources(sim *Simulator, cycle int) {
	t.checkCycle(cycle)
	w, b := cycle/64, uint(cycle%64)
	for _, id := range sim.nl.Inputs() {
		if sim.vals[id]&1 == 1 {
			t.bits[id][w] |= 1 << b
		}
	}
	for _, id := range sim.nl.Regs() {
		if sim.vals[id]&1 == 1 {
			t.bits[id][w] |= 1 << b
		}
	}
}

func (t *Trace) checkCycle(cycle int) {
	if cycle < 0 || cycle >= t.cycles {
		panic(fmt.Sprintf("logicsim: record cycle %d out of range [0,%d)", cycle, t.cycles))
	}
}

// FillCombParallel recovers every combinational node's values from the
// recorded source values with one bit-parallel evaluation per 64-cycle
// block — the paper's "fast bit-parallel calculation". The provided
// simulator supplies netlist/topology; its state is not modified (an
// internal fork is used).
func (t *Trace) FillCombParallel(sim *Simulator) {
	par := sim.Fork()
	nl := par.nl
	sources := make([]netlist.NodeID, 0, len(nl.Inputs())+len(nl.Regs()))
	sources = append(sources, nl.Inputs()...)
	sources = append(sources, nl.Regs()...)
	for w := 0; w < words(t.cycles); w++ {
		for _, id := range sources {
			par.vals[id] = t.bits[id][w]
		}
		par.Eval()
		for i := 0; i < nl.NumNodes(); i++ {
			if nl.Node(netlist.NodeID(i)).Type.IsCombinational() {
				t.bits[i][w] = par.vals[i]
			}
		}
	}
	if rem := t.cycles % 64; rem != 0 {
		mask := uint64(1)<<uint(rem) - 1
		last := words(t.cycles) - 1
		for i := range t.bits {
			t.bits[i][last] &= mask
		}
	}
}

// SwitchSignature returns the node's switching signature as a bitset:
// bit c is 1 iff the node's value differs between cycle c-1 and cycle c
// (bit 0 is always 0, matching the paper's definition where ss_i compares
// cycle i against cycle i-1).
func (t *Trace) SwitchSignature(id netlist.NodeID) []uint64 {
	v := t.bits[id]
	ss := make([]uint64, len(v))
	var carry uint64
	for w := range v {
		shifted := v[w]<<1 | carry
		carry = v[w] >> 63
		ss[w] = v[w] ^ shifted
	}
	if len(ss) > 0 {
		ss[0] &^= 1
	}
	if rem := t.cycles % 64; rem != 0 && len(ss) > 0 {
		ss[len(ss)-1] &= (1 << uint(rem)) - 1
	}
	return ss
}

// words returns the number of 64-bit words needed for the cycle count.
func words(cycles int) int { return (cycles + 63) / 64 }

// CaptureScalar runs the simulator for the given number of cycles,
// calling drive(cycle) before each cycle's evaluation so the caller can
// set primary inputs, and records the value of every node at every
// cycle. The simulator is stepped (registers advance) after each record.
func CaptureScalar(sim *Simulator, cycles int, drive func(cycle int)) *Trace {
	t := NewTrace(sim.Netlist(), cycles)
	for c := 0; c < cycles; c++ {
		if drive != nil {
			drive(c)
		}
		sim.Eval()
		t.RecordAll(sim, c)
		sim.Latch()
	}
	return t
}
