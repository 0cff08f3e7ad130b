package timingsim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/netlist"
)

// buildRandomDesign returns a random layered netlist exercising every
// cell type, multi-fanin gates, clock-gated registers, and a second
// combinational stage fed by register outputs.
func buildRandomDesign(rng *rand.Rand) *netlist.Netlist {
	nl := netlist.New(512)
	var pool []netlist.NodeID
	for i := 0; i < 12; i++ {
		pool = append(pool, nl.AddInput("in"))
	}
	pool = append(pool, nl.AddConst(false), nl.AddConst(true))
	gateTypes := []netlist.CellType{
		netlist.Buf, netlist.Inv, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux2,
	}
	pick := func() netlist.NodeID { return pool[rng.Intn(len(pool))] }
	addGates := func(count int) {
		for i := 0; i < count; i++ {
			t := gateTypes[rng.Intn(len(gateTypes))]
			var id netlist.NodeID
			switch t {
			case netlist.Buf, netlist.Inv:
				id = nl.AddGate(t, pick())
			case netlist.Mux2:
				id = nl.AddGate(t, pick(), pick(), pick())
			default:
				n := 2 + rng.Intn(9) // up to 10 fanins to hit the spill path
				fi := make([]netlist.NodeID, n)
				for j := range fi {
					fi[j] = pick()
				}
				id = nl.AddGate(t, fi...)
			}
			pool = append(pool, id)
		}
	}
	addGates(260)
	var regs []netlist.NodeID
	for i := 0; i < 40; i++ {
		r := nl.AddDFF(pick(), "", rng.Intn(2) == 0)
		if rng.Intn(3) == 0 {
			nl.SetDFFEnable(r, pick())
		}
		regs = append(regs, r)
		pool = append(pool, r)
	}
	addGates(80)
	for i := 0; i < 10; i++ {
		nl.AddDFF(pick(), "", false)
	}
	if err := nl.Validate(); err != nil {
		panic(err)
	}
	return nl
}

func randomValues(rng *rand.Rand, n int) func(netlist.NodeID) bool {
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = rng.Intn(2) == 0
	}
	return func(id netlist.NodeID) bool { return vals[id] }
}

// valueBits packs a values callback into the bitset InjectBits reads.
func valueBits(values func(netlist.NodeID) bool, n int) []uint64 {
	vb := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if values(netlist.NodeID(i)) {
			vb[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return vb
}

func randomStrike(rng *rand.Rand, dm DelayModel, numNodes int) Strike {
	st := Strike{
		Time:  rng.Float64() * dm.ClockPeriod * 1.3,
		Width: rng.Float64() * dm.MinPulse * 12,
	}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		// Any node id: non-combinational picks must be skipped
		// identically by both sweeps.
		st.Gates = append(st.Gates, netlist.NodeID(rng.Intn(numNodes)))
	}
	if rng.Intn(2) == 0 {
		st.Widths = make([]float64, len(st.Gates))
		for i := range st.Widths {
			st.Widths[i] = rng.Float64() * dm.MinPulse * 12
		}
	}
	return st
}

func resultsEqual(a, b Result) bool {
	if a.ActiveGates != b.ActiveGates || a.ReachedRegs != b.ReachedRegs ||
		len(a.FlippedRegs) != len(b.FlippedRegs) {
		return false
	}
	for i := range a.FlippedRegs {
		if a.FlippedRegs[i] != b.FlippedRegs[i] {
			return false
		}
	}
	return true
}

func wavesEqual(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildReconvergentDesign returns a random netlist in which each XOR
// recombines a node's transient from a short and a long path, so it
// sees several waved fanins with shifted spans.
func buildReconvergentDesign(rng *rand.Rand) *netlist.Netlist {
	nl := netlist.New(512)
	var pool []netlist.NodeID
	for i := 0; i < 10; i++ {
		pool = append(pool, nl.AddInput("in"))
	}
	pick := func() netlist.NodeID { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 80; i++ {
		x := pick()
		short := nl.AddGate(netlist.Buf, x)
		long := nl.AddGate(netlist.Inv, nl.AddGate(netlist.Buf, nl.AddGate(netlist.Buf, x)))
		pool = append(pool, short, long, nl.AddGate(netlist.Xor, short, long, pick()),
			nl.AddGate(netlist.Nand, pick(), pick()))
	}
	for i := 0; i < 24; i++ {
		r := nl.AddDFF(pick(), "", false)
		if rng.Intn(3) == 0 {
			nl.SetDFFEnable(r, pick())
		}
	}
	if err := nl.Validate(); err != nil {
		panic(err)
	}
	return nl
}

// settle overwrites the value of every combinational node with its
// cell function over its fanins' values, which makes vals a consistent
// evaluation from its input and register values.
func settle(nl *netlist.Netlist, vals []bool) {
	order, err := nl.TopoOrder()
	if err != nil {
		panic(err)
	}
	for _, id := range order {
		node := nl.Node(id)
		in := make([]uint64, len(node.Fanin))
		for j, f := range node.Fanin {
			if vals[f] {
				in[j] = 1
			}
		}
		vals[id] = netlist.EvalCell(node.Type, in)&1 == 1
	}
}

// TestSparseMatchesReferenceSweep drives ~1.5k random strikes through
// the sparse kernel and the dense full-order reference sweep, through
// Inject, InjectBits and InjectPruned, and requires bit-identical
// results — including the waveform of every node, not just the latched
// registers. Values are random on odd trials, so not a consistent
// evaluation, and settled from random inputs and registers on even
// ones. The designs are four random layered ones and one of
// reconvergent XORs; the strikes must reach cells too wide for a flip
// table and narrow cells with several waved fanins.
func TestSparseMatchesReferenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dm := DefaultDelayModel()
	var wideWaved, multiWaved int
	for design := 0; design < 5; design++ {
		nl := buildRandomDesign(rng)
		if design == 4 {
			nl = buildReconvergentDesign(rng)
		}
		n := nl.NumNodes()
		sparse, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		dense.SetReferenceSweep(true)
		for trial := 0; trial < 300; trial++ {
			vals := make([]bool, n)
			for i := range vals {
				vals[i] = rng.Intn(2) == 0
			}
			if trial%2 == 0 {
				settle(nl, vals)
			}
			values := func(id netlist.NodeID) bool { return vals[id] }
			vb := valueBits(values, n)
			ct := sparse.CycleTables([][]uint64{vb})[0]
			st := randomStrike(rng, dm, n)
			same := func(entry string, rs, rd Result) {
				t.Helper()
				if !resultsEqual(rs, rd) {
					t.Fatalf("design %d trial %d %s: sparse %+v != dense %+v (strike %+v)",
						design, trial, entry, rs, rd, st)
				}
				for i := 0; i < n; i++ {
					id := netlist.NodeID(i)
					if !wavesEqual(sparse.Wave(id), dense.Wave(id)) {
						t.Fatalf("design %d trial %d %s: node %d wave sparse %v != dense %v",
							design, trial, entry, i, sparse.Wave(id), dense.Wave(id))
					}
				}
			}
			same("Inject", sparse.Inject(values, st), dense.Inject(values, st))
			for i := 0; i < n; i++ {
				node := nl.Node(netlist.NodeID(i))
				if node.Type == netlist.DFF || len(sparse.Wave(netlist.NodeID(i))) == 0 {
					continue
				}
				waved := 0
				for _, f := range node.Fanin {
					if len(sparse.Wave(f)) > 0 {
						waved++
					}
				}
				if len(node.Fanin) > maxTableFanin {
					wideWaved++
				} else if waved > 1 {
					multiWaved++
				}
			}
			same("InjectBits", sparse.InjectBits(vb, st), dense.InjectBits(vb, st))
			same("InjectPruned", sparse.InjectPruned(ct, st), dense.InjectPruned(ct, st))
		}
	}
	t.Logf("waved cells wider than a flip table: %d; narrow waved cells with several waved fanins: %d",
		wideWaved, multiWaved)
	if wideWaved == 0 || multiWaved == 0 {
		t.Fatal("the strikes never reached a wide cell or a narrow cell's several fanins")
	}
}

// TestForkSharedConeCacheRace runs forked simulators concurrently over
// the same design with overlapping strikes, so the tables Fork shares
// (topology, fanins) and the shared cycle tables are read from multiple
// goroutines (run under -race), then checks every fork produced the
// same results as a fresh serial simulator fed the same sequence.
func TestForkSharedConeCacheRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := buildRandomDesign(rng)
	dm := DefaultDelayModel()
	base, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	cycles := make([][]uint64, 4)
	for i := range cycles {
		cycles[i] = valueBits(randomValues(rng, nl.NumNodes()), nl.NumNodes())
	}
	tables := base.CycleTables(cycles)
	const workers = 4
	const trials = 200
	type runs struct {
		flipped [][]netlist.NodeID
	}
	out := make([]runs, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sim := base
		if w > 0 {
			sim = base.Fork()
		}
		wg.Add(1)
		go func(w int, sim *Simulator) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < trials; i++ {
				k := i % len(cycles)
				st := randomStrike(wrng, dm, nl.NumNodes())
				may := tables[k].MayLatch(st)
				res := sim.InjectBits(cycles[k], st)
				if !may && len(res.FlippedRegs) > 0 {
					t.Errorf("worker %d trial %d: bound false but flipped %v", w, i, res.FlippedRegs)
				}
				if pr := sim.InjectPruned(tables[k], st); !wavesEqualIDs(pr.FlippedRegs, res.FlippedRegs) {
					t.Errorf("worker %d trial %d: pruned sweep flipped %v, full sweep %v", w, i, pr.FlippedRegs, res.FlippedRegs)
				}
				out[w].flipped = append(out[w].flipped,
					append([]netlist.NodeID(nil), res.FlippedRegs...))
			}
		}(w, sim)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		ref, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		wrng := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < trials; i++ {
			st := randomStrike(wrng, dm, nl.NumNodes())
			res := ref.InjectBits(cycles[i%len(cycles)], st)
			if !wavesEqualIDs(res.FlippedRegs, out[w].flipped[i]) {
				t.Fatalf("worker %d trial %d: flipped %v, serial reference %v",
					w, i, out[w].flipped[i], res.FlippedRegs)
			}
		}
	}
}

func wavesEqualIDs(a, b []netlist.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTouchedResetIsComplete checks that the targeted reset leaves no
// stale waveform behind: a big strike followed by a tiny disjoint one
// must give the tiny strike's standalone result.
func TestTouchedResetIsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nl := buildRandomDesign(rng)
	dm := DefaultDelayModel()
	sim, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	values := randomValues(rng, nl.NumNodes())
	big := randomStrike(rng, dm, nl.NumNodes())
	big.Width = dm.MinPulse * 40
	small := randomStrike(rng, dm, nl.NumNodes())
	sim.Inject(values, big)
	got := sim.Inject(values, small)
	want := fresh.Inject(values, small)
	if !resultsEqual(got, want) {
		t.Fatalf("stale state: after big strike got %+v, fresh sim %+v", got, want)
	}
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if !wavesEqual(sim.Wave(id), fresh.Wave(id)) {
			t.Fatalf("node %d: stale wave %v, fresh %v", i, sim.Wave(id), fresh.Wave(id))
		}
	}
}
