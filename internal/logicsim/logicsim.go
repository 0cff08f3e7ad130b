// Package logicsim provides zero-delay cycle simulation of a gate-level
// netlist. Every net carries a 64-bit word, so a single pass evaluates 64
// independent lanes; the framework uses the lanes in two ways:
//
//   - scalar simulation (lane 0 only) for RTL-style cycle stepping, and
//   - bit-parallel evaluation, where the 64 lanes hold 64 consecutive
//     cycles of register/input values, and a single combinational pass
//     yields 64 cycles of values for every internal gate. This is the
//     "fast bit-parallel calculation" the paper's pre-characterization
//     uses to derive switching signatures.
package logicsim

import (
	"fmt"

	"repro/internal/netlist"
)

// AllLanes is the word with every lane set.
const AllLanes = ^uint64(0)

// Simulator evaluates a netlist cycle by cycle. It is not safe for
// concurrent use; clone one per goroutine with Fork.
//
// Evaluation runs over the compiled struct-of-arrays Plan (flat value
// array, packed op stream, contiguous fanin pool); the original
// pointer-walking sweep over netlist.Node is retained behind
// SetReferenceEval for equivalence testing.
type Simulator struct {
	nl   *netlist.Netlist
	plan *Plan
	vals []uint64
	// latchBuf and argBuf are per-simulator scratch so the per-cycle
	// Latch/Eval hot path allocates nothing.
	latchBuf []uint64
	argBuf   []uint64 // spill for cells with more than 8 fanins
	// order and reference drive the pointer-walking reference
	// evaluator; order is shared across forks like the plan.
	order     []netlist.NodeID
	reference bool
}

// New builds a simulator for the netlist. The netlist must be valid and
// must not be mutated afterwards; the evaluation plan (including the
// combinational topological order) is compiled once and reused every
// cycle. Registers power on to their declared init values.
func New(nl *netlist.Netlist) (*Simulator, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	plan, err := Compile(nl)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		nl:       nl,
		plan:     plan,
		order:    order,
		vals:     make([]uint64, nl.NumNodes()),
		latchBuf: make([]uint64, len(nl.Regs())),
	}
	// The reference evaluator walks the raw netlist, so its spill
	// buffer is sized from the netlist's widest cell — the plan's
	// maxFanin can be smaller after peephole folding.
	maxFanin := 0
	for id := 0; id < nl.NumNodes(); id++ {
		if n := len(nl.Node(netlist.NodeID(id)).Fanin); n > maxFanin {
			maxFanin = n
		}
	}
	if maxFanin > 8 {
		s.argBuf = make([]uint64, maxFanin)
	}
	s.Reset()
	return s, nil
}

// Fork returns an independent simulator sharing the immutable netlist,
// compiled plan, and topological order, but with its own value state,
// initialized to a deep copy of the receiver's current state — forks
// never observe each other's evaluations.
func (s *Simulator) Fork() *Simulator {
	c := &Simulator{
		nl:        s.nl,
		plan:      s.plan,
		order:     s.order,
		vals:      make([]uint64, len(s.vals)),
		latchBuf:  make([]uint64, len(s.latchBuf)),
		reference: s.reference,
	}
	if s.argBuf != nil {
		c.argBuf = make([]uint64, len(s.argBuf))
	}
	copy(c.vals, s.vals)
	return c
}

// Plan returns the compiled evaluation plan. It is immutable and shared
// by every fork; callers must treat it as read-only.
func (s *Simulator) Plan() *Plan { return s.plan }

// SetReferenceEval switches Eval/Latch between the compiled SoA plan
// (the default) and the original pointer-walking sweep over
// netlist.Node. The two are bit-identical; the reference path exists
// for equivalence testing and debugging. Forks inherit the setting.
func (s *Simulator) SetReferenceEval(on bool) { s.reference = on }

// Netlist returns the simulated netlist.
func (s *Simulator) Netlist() *netlist.Netlist { return s.nl }

// Reset restores every register to its power-on value (in all lanes) and
// clears every input.
func (s *Simulator) Reset() {
	s.plan.Reset(s.vals)
}

// SetInput drives a primary input with a 64-lane word.
func (s *Simulator) SetInput(id netlist.NodeID, word uint64) {
	if !s.plan.isInput(id) {
		s.notInput(id)
	}
	s.vals[id] = word
}

// notInput panics on an attempt to drive a node that is not a primary
// input. It stays out of line so SetInput inlines into its callers.
//
//go:noinline
func (s *Simulator) notInput(id netlist.NodeID) {
	panic(fmt.Sprintf("logicsim: SetInput on non-input node %d (%v)", id, s.nl.Node(id).Type))
}

// Eval propagates the current input and register values through the
// combinational logic. It does not advance registers.
func (s *Simulator) Eval() {
	if s.reference {
		s.evalReference()
		return
	}
	s.plan.Eval(s.vals)
}

// evalReference is the original pointer-walking combinational sweep,
// kept as the equivalence oracle for the compiled plan.
func (s *Simulator) evalReference() {
	var in [8]uint64
	for _, id := range s.order {
		node := s.nl.Node(id)
		fi := node.Fanin
		args := in[:]
		if len(fi) > len(in) {
			args = s.argBuf
		}
		args = args[:len(fi)]
		for j, f := range fi {
			args[j] = s.vals[f]
		}
		s.vals[id] = netlist.EvalCell(node.Type, args)
	}
}

// Latch advances every register: each DFF captures the current value of
// its data input. Callers normally use Step, which evaluates first.
func (s *Simulator) Latch() {
	if s.reference {
		regs := s.nl.Regs()
		next := s.latchBuf
		for i, r := range regs {
			next[i] = s.vals[s.nl.Node(r).Fanin[0]]
		}
		for i, r := range regs {
			s.vals[r] = next[i]
		}
		return
	}
	s.plan.Latch(s.vals, s.latchBuf)
}

// Step runs one full clock cycle: combinational evaluation followed by
// the register latch.
func (s *Simulator) Step() {
	s.Eval()
	s.Latch()
}

// Val returns the current 64-lane word on the node's output net.
func (s *Simulator) Val(id netlist.NodeID) uint64 { return s.vals[id] }

// Bool returns lane 0 of the node's output net.
func (s *Simulator) Bool(id netlist.NodeID) bool { return s.vals[id]&1 == 1 }

// Lane returns the given lane of the node's output net.
func (s *Simulator) Lane(id netlist.NodeID, lane int) bool {
	return s.vals[id]>>uint(lane)&1 == 1
}

// SetReg overwrites a register's current output value (all 64 lanes).
// This is the fault-injection hook: flipping a register bit after a
// gate-level injection cycle is SetReg(r, Val(r) ^ lanes).
func (s *Simulator) SetReg(id netlist.NodeID, word uint64) {
	if s.nl.Node(id).Type != netlist.DFF {
		panic(fmt.Sprintf("logicsim: SetReg on non-register node %d", id))
	}
	s.vals[id] = word
}

// FlipReg inverts a register's value in lane 0 (the scalar lane).
func (s *Simulator) FlipReg(id netlist.NodeID) {
	if s.nl.Node(id).Type != netlist.DFF {
		panic(fmt.Sprintf("logicsim: FlipReg on non-register node %d", id))
	}
	s.vals[id] ^= 1
}

// RegState captures the current register values (all lanes) in the order
// of Netlist.Regs. It is the checkpoint payload for golden-run restart.
func (s *Simulator) RegState() []uint64 {
	out := make([]uint64, len(s.nl.Regs()))
	s.RegStateInto(out)
	return out
}

// RegStateInto writes the current register values (all lanes, in
// Netlist.Regs order) into the caller's buffer, which must have exactly
// one word per register. It is the allocation-free RegState for hot
// paths that snapshot registers every cycle.
func (s *Simulator) RegStateInto(out []uint64) {
	regs := s.nl.Regs()
	if len(out) != len(regs) {
		panic(fmt.Sprintf("logicsim: RegStateInto with %d words for %d regs", len(out), len(regs)))
	}
	for i, r := range regs {
		out[i] = s.vals[r]
	}
}

// RegDiffMask XORs every register against a reference register state
// (same order and length as RegState) and ORs the differences together:
// bit l of the result is set iff lane l disagrees with the reference in
// at least one register. With golden register words in ref, this is the
// per-cycle error-liveness mask of a lane-batched resume — one pass
// yields every lane's "does any error survive" bit.
func (s *Simulator) RegDiffMask(ref []uint64) uint64 {
	regs := s.nl.Regs()
	if len(ref) != len(regs) {
		panic(fmt.Sprintf("logicsim: RegDiffMask with %d words for %d regs", len(ref), len(regs)))
	}
	var m uint64
	for i, r := range regs {
		m |= s.vals[r] ^ ref[i]
	}
	return m
}

// Broadcast returns the 64-lane word holding v in every lane.
func Broadcast(v bool) uint64 {
	if v {
		return AllLanes
	}
	return 0
}

// SetRegState restores register values captured by RegState.
func (s *Simulator) SetRegState(state []uint64) {
	regs := s.nl.Regs()
	if len(state) != len(regs) {
		panic(fmt.Sprintf("logicsim: SetRegState with %d values for %d regs", len(state), len(regs)))
	}
	for i, r := range regs {
		s.vals[r] = state[i]
	}
}

// Signal helpers: multi-bit values over groups of nodes (LSB first),
// matching hdl.Signal layout.

// ReadWord returns lane 0 of the listed nodes packed LSB-first into a
// uint64.
func (s *Simulator) ReadWord(bits []netlist.NodeID) uint64 {
	var v uint64
	for i, id := range bits {
		if s.vals[id]&1 == 1 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// DriveWord drives the listed input nodes (LSB first) with the bits of v
// in all lanes of each node.
func (s *Simulator) DriveWord(bits []netlist.NodeID, v uint64) {
	for i, id := range bits {
		if !s.plan.isInput(id) {
			s.notInput(id)
		}
		s.vals[id] = -(v >> uint(i) & 1)
	}
}
