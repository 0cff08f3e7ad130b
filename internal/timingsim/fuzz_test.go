package timingsim

import (
	"slices"
	"testing"

	"repro/internal/netlist"
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros, so
// every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeInjectCase builds a small netlist, its fault-free values and a
// strike from fuzz bytes: inputs and a constant, up to 24 gates of any
// combinational type (variadic ones with 2–7 fanins), registers with
// optional enables, a few gates behind the registers, values either
// bit by bit (possibly not a consistent evaluation) or evaluated from
// the inputs and registers, and a strike on any nodes, with or without
// per-gate widths. It also returns a spot for the strike: its gates and
// a few more, and a width cap at least its widest deposit.
func decodeInjectCase(data []byte) (*netlist.Netlist, []uint64, Strike, []netlist.NodeID, float64) {
	b := fuzzBytes(data)
	nl := netlist.New(64)
	var pool []netlist.NodeID
	for n := 1 + b.next()%4; n > 0; n-- {
		pool = append(pool, nl.AddInput(""))
	}
	pool = append(pool, nl.AddConst(b.next()%2 == 1))
	types := []netlist.CellType{
		netlist.Buf, netlist.Inv, netlist.And, netlist.Nand, netlist.Or,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux2,
	}
	addGates := func(n int) {
		for ; n > 0; n-- {
			t := types[b.next()%len(types)]
			arity := 2 + b.next()%6
			switch t {
			case netlist.Buf, netlist.Inv:
				arity = 1
			case netlist.Mux2:
				arity = 3
			}
			fi := make([]netlist.NodeID, arity)
			for j := range fi {
				fi[j] = pool[b.next()%len(pool)]
			}
			pool = append(pool, nl.AddGate(t, fi...))
		}
	}
	addGates(1 + b.next()%24)
	for n := 1 + b.next()%4; n > 0; n-- {
		r := nl.AddDFF(pool[b.next()%len(pool)], "", b.next()%2 == 1)
		if b.next()%2 == 1 {
			nl.SetDFFEnable(r, pool[b.next()%len(pool)])
		}
		pool = append(pool, r)
	}
	addGates(b.next() % 5)

	n := nl.NumNodes()
	vals := make([]bool, n)
	consistent := b.next()%2 == 1
	for i := range vals {
		vals[i] = b.next()%2 == 1
	}
	if consistent {
		settle(nl, vals)
	}
	vb := make([]uint64, (n+63)/64)
	for i, v := range vals {
		if v {
			vb[i>>6] |= 1 << (uint(i) & 63)
		}
	}

	st := Strike{Time: 3 * float64(b.next()), Width: float64(b.next())}
	perGate := b.next()%2 == 1
	for k := b.next() % 6; k > 0; k-- {
		st.Gates = append(st.Gates, netlist.NodeID(b.next()%n))
		if perGate {
			st.Widths = append(st.Widths, float64(b.next()))
		}
	}
	spot := slices.Clone(st.Gates)
	for k := b.next() % 4; k > 0; k-- {
		spot = append(spot, netlist.NodeID(b.next()%n))
	}
	wcap := st.Width
	for _, w := range st.Widths {
		wcap = max(wcap, w)
	}
	return nl, vb, st, spot, wcap + float64(b.next())
}

// FuzzInjectEquivalence decodes a netlist, its fault-free values and a
// strike from the input and requires the kernel to match the dense
// reference sweep, in the result and in every node's wave, through
// Inject, InjectBits and InjectPruned, and a strike the cycle table's
// latch bound rejects to latch nothing in either InjectBits. A strike
// that the record of a spot around its gates rejects at the spot's
// width cap, or that the record's instant-free check rules out, must
// fail the latch bound and latch nothing too.
func FuzzInjectEquivalence(f *testing.F) {
	f.Add([]byte{})
	// A wide XNOR and a Mux2 behind a struck buffer, per-gate widths.
	f.Add([]byte{3, 0, 4, 2, 5, 0, 1, 2, 3, 4, 0, 5, 8, 0, 4, 5, 0, 4, 6, 1, 0, 1, 1, 7, 1,
		0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 185, 120, 1, 3, 4, 90, 5, 200, 6, 150})
	// Consistent values, reconvergent fanouts of one input.
	f.Add([]byte{0, 1, 9, 0, 0, 0, 1, 0, 6, 0, 4, 1, 2, 2, 3, 3, 0, 4, 5, 2, 1, 0, 6, 1,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 180, 150, 0, 2, 0, 2})
	// Consistent values; a struck buffer whose only path to a register
	// is fanin 2 of a three-input XOR, wide enough to latch.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 6, 1, 0, 0, 2, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 180, 100, 0, 1, 2})
	dm := DefaultDelayModel()
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, vb, st, spot, wcap := decodeInjectCase(data)
		if err := nl.Validate(); err != nil {
			t.Fatalf("decoded an invalid netlist: %v", err)
		}
		kernel, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		ref.SetReferenceSweep(true)
		values := func(id netlist.NodeID) bool { return vb[id>>6]>>(uint(id)&63)&1 == 1 }
		ct := kernel.CycleTables([][]uint64{vb})[0]
		same := func(label string, a, b Result) {
			if !resultsEqual(a, b) {
				t.Fatalf("%s: kernel %+v, reference %+v (strike %+v)", label, a, b, st)
			}
			for i := 0; i < nl.NumNodes(); i++ {
				id := netlist.NodeID(i)
				if !wavesEqual(kernel.Wave(id), ref.Wave(id)) {
					t.Fatalf("%s: node %d wave %v, reference %v (strike %+v)", label, id, kernel.Wave(id), ref.Wave(id), st)
				}
			}
		}
		same("Inject", kernel.Inject(values, st), ref.Inject(values, st))
		full, dense := kernel.InjectBits(vb, st), ref.InjectBits(vb, st)
		same("InjectBits", full, dense)
		if !ct.MayLatch(st) && (len(full.FlippedRegs) != 0 || len(dense.FlippedRegs) != 0) {
			t.Fatalf("latch bound rejected strike %+v, but InjectBits flipped %v and the reference %v",
				st, full.FlippedRegs, dense.FlippedRegs)
		}
		same("InjectPruned", kernel.InjectPruned(ct, st), ref.InjectPruned(ct, st))
		sb := ct.SpotBound(spot)
		rejected := !ct.SpotMayLatch(&sb, st.Time, wcap)
		if !ct.SpotMayLatchWithin(&sb, dm.ClockPeriod, wcap) && st.Time <= dm.ClockPeriod {
			rejected = true // every decoded instant is at least 0
		}
		if rejected && (ct.MayLatch(st) || len(full.FlippedRegs) != 0 || len(dense.FlippedRegs) != 0) {
			t.Fatalf("spot record %+v rejected strike %+v at width cap %v, but the latch bound keeps it: %v; InjectBits flipped %v and the reference %v",
				sb, st, wcap, ct.MayLatch(st), full.FlippedRegs, dense.FlippedRegs)
		}
	})
}
