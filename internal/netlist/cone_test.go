package netlist_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/soc"
)

// checkConeMatchesBFS compares both unrolled cones of the roots, layer by
// layer, with the breadth-first walk over (node, depth) pairs.
func checkConeMatchesBFS(t *testing.T, nl *netlist.Netlist, roots []netlist.NodeID, maxDepth int) {
	t.Helper()
	for _, forward := range []bool{false, true} {
		got := nl.UnrolledFaninCone(roots, maxDepth)
		if forward {
			got = nl.UnrolledFanoutCone(roots, maxDepth)
		}
		want := nl.UnrolledConeBFS(roots, maxDepth, forward)
		if got.MaxDepth() != want.MaxDepth() {
			t.Fatalf("forward %v, roots %v, maxDepth %d: %d layers, BFS %d", forward, roots, maxDepth, got.MaxDepth(), want.MaxDepth())
		}
		for d := range want.ByDepth {
			if !slices.Equal(got.ByDepth[d], want.ByDepth[d]) {
				t.Fatalf("forward %v, roots %v, maxDepth %d, depth %d: %v, BFS %v", forward, roots, maxDepth, d, got.ByDepth[d], want.ByDepth[d])
			}
		}
	}
}

// coneCase decodes a netlist, its roots and an unroll depth from bytes:
// data[0] sets maxDepth in [-4, 63], data[1] the root count (1–4),
// the next bytes the roots (duplicates allowed), and every following
// triple (kind, a, b) adds one node. The first node is an input. A
// register's data input may be any node, so register loops of every
// length arise; a gate's fanins are earlier nodes unless kind ≥ 0xe0
// lets them point anywhere, which can close a combinational loop that
// Validate rejects.
func coneCase(data []byte) (nl *netlist.Netlist, roots []netlist.NodeID, maxDepth int, ok bool) {
	if len(data) < 3 {
		return nil, nil, 0, false
	}
	maxDepth = int(data[0]%68) - 4
	nRoots := 1 + int(data[1]%4)
	if len(data) < 2+nRoots {
		return nil, nil, 0, false
	}
	rootBytes, body := data[2:2+nRoots], data[2+nRoots:]
	total := 1 + len(body)/3
	nl = netlist.New(total)
	nl.AddInput("in")
	type patch struct {
		id   netlist.NodeID
		pins []byte
	}
	var patches []patch
	for k := 0; k+2 < len(body); k += 3 {
		kind, a, b := body[k], body[k+1], body[k+2]
		cur := nl.NumNodes()
		pick := func(x byte) netlist.NodeID { return netlist.NodeID(int(x) % cur) }
		var id netlist.NodeID
		switch kind % 5 {
		case 0:
			id = nl.AddInput("")
		case 1:
			id = nl.AddDFF(0, "", a&1 == 1)
			patches = append(patches, patch{id, []byte{a}})
		case 2:
			id = nl.AddGate(netlist.Inv, pick(a))
			if kind >= 0xe0 {
				patches = append(patches, patch{id, []byte{a}})
			}
		default:
			id = nl.AddGate(netlist.Nand, pick(a), pick(b))
			if kind >= 0xe0 {
				patches = append(patches, patch{id, []byte{a, b}})
			}
		}
	}
	n := nl.NumNodes()
	for _, p := range patches {
		for i, x := range p.pins {
			nl.Node(p.id).Fanin[i] = netlist.NodeID(int(x) % n)
		}
	}
	for _, r := range rootBytes {
		roots = append(roots, netlist.NodeID(int(r)%n))
	}
	return nl, roots, maxDepth, nl.Validate() == nil
}

// TestUnrolledConeMatchesBFS holds both cones to the breadth-first
// oracle on random netlists with register loops, on register rings
// whose layers repeat with periods 1 to 5 (so a layer can equal one two
// or more layers back without the cone having converged), on register
// chains longer and shorter than maxDepth (the early stop must be taken
// on the short ones only, and never falsely on the long ones), and with
// duplicated roots.
func TestUnrolledConeMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3+rng.Intn(240))
		rng.Read(data)
		nl, roots, maxDepth, ok := coneCase(data)
		if !ok {
			continue
		}
		checkConeMatchesBFS(t, nl, roots, maxDepth)
		checked++
	}
	if checked < 150 {
		t.Fatalf("only %d of 300 random netlists were valid", checked)
	}

	// Rings: r0 ← r1 ← … ← r(k-1) ← r0, each register behind a buffer,
	// with a tap gate on r0. Fanin layer d holds r(d mod k), so layers
	// repeat with period k.
	for k := 1; k <= 5; k++ {
		nl := netlist.New(3 * k)
		in := nl.AddInput("in")
		regs := make([]netlist.NodeID, k)
		for i := range regs {
			regs[i] = nl.AddDFF(in, "", false)
		}
		for i, r := range regs {
			nl.Node(r).Fanin[0] = nl.AddGate(netlist.Buf, regs[(i+1)%k])
		}
		tap := nl.AddGate(netlist.Nand, regs[0], in)
		for _, maxDepth := range []int{0, 1, k - 1, k, k + 1, 2*k + 1, 12} {
			checkConeMatchesBFS(t, nl, []netlist.NodeID{regs[0]}, maxDepth)
			checkConeMatchesBFS(t, nl, []netlist.NodeID{tap}, maxDepth)
			checkConeMatchesBFS(t, nl, []netlist.NodeID{regs[0], tap, regs[0]}, maxDepth)
		}
	}

	// Chains: in → c0 → c1 → … → c(L-1). Every layer differs until the
	// chain runs out, after which the layers are empty (fanin) or the
	// chain's end (fanout).
	for _, length := range []int{1, 3, 8, 20} {
		nl := netlist.New(length + 1)
		prev := nl.AddInput("in")
		first := netlist.Invalid
		for i := 0; i < length; i++ {
			prev = nl.AddDFF(prev, "", false)
			if first == netlist.Invalid {
				first = prev
			}
		}
		for _, maxDepth := range []int{0, 2, length - 1, length, length + 1, 2 * length} {
			checkConeMatchesBFS(t, nl, []netlist.NodeID{prev}, maxDepth)
			checkConeMatchesBFS(t, nl, []netlist.NodeID{first, first}, maxDepth)
		}
	}
}

// TestUnrolledConeMatchesBFSOnMPU compares both cones of the MPU's
// responding signals with the oracle for every maxDepth from 0 to 60,
// and checks the fixed point the layer walk stops at: the fanin cone's
// layers are all equal from depth 3 on, the fanout cone's from depth 1.
func TestUnrolledConeMatchesBFSOnMPU(t *testing.T) {
	mpu, err := soc.BuildMPU(soc.DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	nl, roots := mpu.Netlist, mpu.RespondingSignals
	for maxDepth := 0; maxDepth <= 60; maxDepth++ {
		checkConeMatchesBFS(t, nl, roots, maxDepth)
	}
	for _, c := range []struct {
		cone  *netlist.Cone
		fixed int
	}{
		{nl.UnrolledFaninCone(roots, 50), 3},
		{nl.UnrolledFanoutCone(roots, 50), 1},
	} {
		for d := 1; d <= 50; d++ {
			if eq := slices.Equal(c.cone.ByDepth[d], c.cone.ByDepth[d-1]); eq != (d > c.fixed) {
				t.Errorf("layer %d equals layer %d: %v, want %v (fixed point at depth %d)", d, d-1, eq, d > c.fixed, c.fixed)
			}
		}
	}
}

// FuzzUnrolledCone decodes a netlist, its roots and maxDepth from the
// input (see coneCase), skips netlists that fail Validate, and holds
// both cones to the breadth-first oracle.
func FuzzUnrolledCone(f *testing.F) {
	f.Add([]byte{10, 0, 2, 0, 0, 0, 1, 0, 0, 3, 1, 2})
	f.Add([]byte{7, 2, 3, 3, 1, 1, 5, 0, 1, 3, 0, 1, 1, 2, 0, 4, 2, 3})
	f.Add([]byte{63, 3, 9, 4, 2, 1, 1, 8, 0, 1, 2, 0, 1, 3, 0, 227, 4, 2, 2, 1, 0, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, roots, maxDepth, ok := coneCase(data)
		if !ok {
			return
		}
		checkConeMatchesBFS(t, nl, roots, maxDepth)
	})
}
