package logicsim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// buildMixed builds a small sequential circuit whose combinational
// cloud exercises every compiled opcode class: all six 2-input gate
// types, Inv/Buf, Mux2, both constants, variable-fanin (3- and
// 4-input) gates including the inverted N-ary forms, and DFFs with
// mixed init values fed back through the cloud.
func buildMixed(t *testing.T) (nl *netlist.Netlist, inputs, regs []netlist.NodeID) {
	t.Helper()
	n := netlist.New(64)
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	one := n.AddConst(true)
	zero := n.AddConst(false)
	regs = make([]netlist.NodeID, 6)
	for i := range regs {
		regs[i] = n.AddDFF(one, "", i%2 == 0)
	}
	g0 := n.AddGate(netlist.And, a, regs[0])
	g1 := n.AddGate(netlist.Nand, b, regs[1])
	g2 := n.AddGate(netlist.Or, c, regs[2])
	g3 := n.AddGate(netlist.Nor, g0, regs[3])
	g4 := n.AddGate(netlist.Xor, g1, regs[4])
	g5 := n.AddGate(netlist.Xnor, g2, regs[5])
	g6 := n.AddGate(netlist.Inv, g3)
	g7 := n.AddGate(netlist.Buf, g4)
	g8 := n.AddGate(netlist.Mux2, g5, g6, g7)
	g9 := n.AddGate(netlist.And, g0, g1, g2)
	g10 := n.AddGate(netlist.Nor, g3, g4, g5, a)
	g11 := n.AddGate(netlist.Xor, g6, g7, g8)
	g12 := n.AddGate(netlist.Nand, g9, g10, b)
	g13 := n.AddGate(netlist.Xnor, g11, g12, c)
	g14 := n.AddGate(netlist.Or, g13, zero, g8)
	n.Node(regs[0]).Fanin[0] = g8
	n.Node(regs[1]).Fanin[0] = g9
	n.Node(regs[2]).Fanin[0] = g10
	n.Node(regs[3]).Fanin[0] = g11
	n.Node(regs[4]).Fanin[0] = g12
	n.Node(regs[5]).Fanin[0] = g14
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, []netlist.NodeID{a, b, c}, regs
}

// TestForkSharesPlan checks the aliasing contract of Fork: the compiled
// plan (immutable) is shared by pointer, while the value state is an
// independent deep copy — stepping the fork must not disturb the
// parent.
func TestForkSharesPlan(t *testing.T) {
	nl, inputs, _ := buildMixed(t)
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	s.DriveWord(inputs, 5)
	s.Eval()
	f := s.Fork()
	if s.Plan() != f.Plan() {
		t.Fatal("Fork must share the parent's compiled plan")
	}
	before := make([]uint64, nl.NumNodes())
	for i := range before {
		before[i] = s.Val(netlist.NodeID(i))
	}
	f.DriveWord(inputs, 2)
	f.Step()
	f.Step()
	for i := range before {
		if got := s.Val(netlist.NodeID(i)); got != before[i] {
			t.Fatalf("stepping the fork changed parent node %d: %#x -> %#x", i, before[i], got)
		}
	}
}

// TestFillCombParallelMatchesRecordAll checks that recovering gate
// values from recorded sources one 64-cycle block per pass
// (FillCombParallel) is bit-identical to recording every node every
// cycle, including the ragged tail when the cycle count is not a
// multiple of 64.
func TestFillCombParallelMatchesRecordAll(t *testing.T) {
	nl, inputs, _ := buildMixed(t)
	const cycles = 3*64 + 17
	full := NewTrace(nl, cycles)
	tr := NewTrace(nl, cycles)
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for c := 0; c < cycles; c++ {
		s.DriveWord(inputs, rng.Uint64())
		s.Eval()
		full.RecordAll(s, c)
		tr.RecordSources(s, c)
		s.Latch()
	}
	tr.FillCombParallel(s)
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		for c := 0; c < cycles; c++ {
			if tr.Value(id, c) != full.Value(id, c) {
				t.Fatalf("node %d cycle %d disagrees with RecordAll", id, c)
			}
		}
	}
}

// TestLatchSplitMatchesReference checks the split latch schedule
// against the reference latch on registers that read registers: a
// 3-stage shift register fed by an input, a two-register swap
// (r1.D = r2, r2.D = r1), and a register fed by a gate over both.
// Latching every register in place in one pass would shift a value
// through several stages in one cycle and copy one swap register onto
// the other.
func TestLatchSplitMatchesReference(t *testing.T) {
	n := netlist.New(16)
	in := n.AddInput("in")
	s0 := n.AddDFF(in, "s0", false)
	s1 := n.AddDFF(s0, "s1", false)
	s2 := n.AddDFF(s1, "s2", true)
	r1 := n.AddDFF(in, "r1", false)
	r2 := n.AddDFF(r1, "r2", true)
	n.Node(r1).Fanin[0] = r2
	n.AddDFF(n.AddGate(netlist.Xor, s2, r1), "q", false)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	fast, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := fast.Fork()
	ref.SetReferenceEval(true)
	rng := rand.New(rand.NewSource(7))
	for _, r := range n.Regs() {
		w := rng.Uint64()
		fast.SetReg(r, w)
		ref.SetReg(r, w)
	}
	for cyc := 0; cyc < 8; cyc++ {
		w := rng.Uint64()
		fast.SetInput(in, w)
		ref.SetInput(in, w)
		fast.Step()
		ref.Step()
		for _, r := range n.Regs() {
			if got, want := fast.Val(r), ref.Val(r); got != want {
				t.Fatalf("cycle %d register %s: %#x, reference %#x", cyc, n.Node(r).Name, got, want)
			}
		}
	}
}
