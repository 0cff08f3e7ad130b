package logicsim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// peepholeDesign exercises every fold rule: buf chains (including one
// feeding a DFF), constants folding into gates of each family, a mux
// with a constant select, and a constant-initialized register.
const peepholeDesign = `gnl v1
0 input "a[0]"
1 input "b[0]"
2 const0
3 const1
4 buf 0
5 buf 4
6 and 5 1
7 and 6 3
8 or 6 2
9 xor 0 3 1
10 xnor 0 2
11 mux2 0 1 3
12 mux2 0 1 2
13 nand 5 3
14 nor 2 8
15 dff 5 en=0 "r0[0]"
16 dff 9 en=0 "r1[0]" init=1
17 xor 15 16
out "y0[0]" 7
out "y1[0]" 8
out "y2[0]" 9
out "y3[0]" 11
out "y4[0]" 12
out "y5[0]" 13
out "y6[0]" 14
out "y7[0]" 17
`

func compilePeepholePair(t *testing.T) (folded, raw *Plan, nl *netlist.Netlist) {
	t.Helper()
	n, err := netlist.Read(strings.NewReader(peepholeDesign))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Compile(n)
	if err != nil {
		t.Fatalf("peephole compile: %v", err)
	}
	r, err := CompileWithOptions(n, CompileOptions{noPeephole: true})
	if err != nil {
		t.Fatalf("raw compile: %v", err)
	}
	return f, r, n
}

// TestPeepholeEvalBitIdentical pins the fold's value-preservation
// contract: with and without the peephole, every node carries the same
// word after every Eval, for random 64-lane stimulus.
func TestPeepholeEvalBitIdentical(t *testing.T) {
	folded, raw, nl := compilePeepholePair(t)
	n := nl.NumNodes()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 64; trial++ {
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()
		}
		b := append([]uint64(nil), a...)
		folded.Eval(a)
		raw.Eval(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d node %d (%v): folded %#x, raw %#x",
					trial, i, nl.Node(netlist.NodeID(i)).Type, a[i], b[i])
			}
		}
	}
}

// TestPeepholeLatchResetEquivalence runs full clocked cycles through
// both plans — Reset, then Eval+Latch with shared random inputs — and
// demands identical register trajectories and node values throughout.
// This covers the latch schedule (never folded: D pins read the raw
// source node) and the initHi reset list under the peephole.
func TestPeepholeLatchResetEquivalence(t *testing.T) {
	folded, raw, nl := compilePeepholePair(t)
	n := nl.NumNodes()
	inputs := nl.Inputs()
	fv := make([]uint64, n)
	rv := make([]uint64, n)
	folded.Reset(fv)
	raw.Reset(rv)
	for i := range fv {
		if fv[i] != rv[i] {
			t.Fatalf("after Reset, node %d: folded %#x, raw %#x", i, fv[i], rv[i])
		}
	}
	latchF := make([]uint64, len(nl.Regs()))
	latchR := make([]uint64, len(nl.Regs()))
	rng := rand.New(rand.NewSource(12))
	for cyc := 0; cyc < 32; cyc++ {
		for _, id := range inputs {
			w := rng.Uint64()
			fv[id] = w
			rv[id] = w
		}
		folded.Eval(fv)
		raw.Eval(rv)
		folded.Latch(fv, latchF)
		raw.Latch(rv, latchR)
		for i := range fv {
			if fv[i] != rv[i] {
				t.Fatalf("cycle %d node %d (%v): folded %#x, raw %#x",
					cyc, i, nl.Node(netlist.NodeID(i)).Type, fv[i], rv[i])
			}
		}
	}
}

// TestPeepholeShrinksOpStream is the reason the pass exists: the
// folded plan must spend fewer fanin-pool reads than the raw one on a
// design with buf chains and constant fanins.
func TestPeepholeShrinksOpStream(t *testing.T) {
	folded, raw, _ := compilePeepholePair(t)
	if len(folded.pool) >= len(raw.pool) {
		t.Errorf("peephole left the fanin pool at %d entries (raw %d)", len(folded.pool), len(raw.pool))
	}
	if len(folded.ops) != len(raw.ops) {
		t.Errorf("peephole changed the op count (%d vs %d); it must rewrite ops, not drop them", len(folded.ops), len(raw.ops))
	}
}

// TestPeepholeChangesHash documents that plans compiled without the
// peephole pass hash differently and therefore can never bind
// evaluators generated from the folded form.
func TestPeepholeChangesHash(t *testing.T) {
	folded, raw, _ := compilePeepholePair(t)
	if folded.Hash() == raw.Hash() {
		t.Error("folded and raw plans share a hash; stale generated code could bind across the peephole boundary")
	}
}
