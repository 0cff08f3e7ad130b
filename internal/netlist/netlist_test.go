package netlist

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildToy constructs a small two-stage circuit used by several tests:
//
//	a, b, c : inputs
//	g1 = AND(a, b)
//	r1 = DFF(g1)
//	g2 = XOR(r1, c)
//	r2 = DFF(g2)
//	out = OR(r2, a)
func buildToy(t *testing.T) (*Netlist, map[string]NodeID) {
	t.Helper()
	n := New(16)
	ids := map[string]NodeID{}
	ids["a"] = n.AddInput("a")
	ids["b"] = n.AddInput("b")
	ids["c"] = n.AddInput("c")
	ids["g1"] = n.AddGate(And, ids["a"], ids["b"])
	ids["r1"] = n.AddDFF(ids["g1"], "r1", false)
	ids["g2"] = n.AddGate(Xor, ids["r1"], ids["c"])
	ids["r2"] = n.AddDFF(ids["g2"], "r2", false)
	ids["out"] = n.AddGate(Or, ids["r2"], ids["a"])
	n.AddOutput("out", ids["out"])
	if err := n.Validate(); err != nil {
		t.Fatalf("toy netlist invalid: %v", err)
	}
	return n, ids
}

func TestAddAndLookup(t *testing.T) {
	n, ids := buildToy(t)
	if got := n.NumNodes(); got != 8 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
	if got, ok := n.FindNode("r1"); !ok || got != ids["r1"] {
		t.Errorf("FindNode(r1) = %v, %v", got, ok)
	}
	if _, ok := n.FindNode("missing"); ok {
		t.Error("FindNode(missing) should fail")
	}
	if got, ok := n.FindOutput("out"); !ok || got != ids["out"] {
		t.Errorf("FindOutput(out) = %v, %v", got, ok)
	}
	if _, ok := n.FindOutput("nope"); ok {
		t.Error("FindOutput(nope) should fail")
	}
	if len(n.Inputs()) != 3 || len(n.Regs()) != 2 || len(n.Outputs()) != 1 {
		t.Errorf("counts: in=%d regs=%d outs=%d", len(n.Inputs()), len(n.Regs()), len(n.Outputs()))
	}
}

func TestSetNameReassigns(t *testing.T) {
	n, ids := buildToy(t)
	n.SetName(ids["g1"], "and_gate")
	if got, ok := n.FindNode("and_gate"); !ok || got != ids["g1"] {
		t.Fatalf("FindNode(and_gate) = %v, %v", got, ok)
	}
	n.SetName(ids["g1"], "renamed")
	if _, ok := n.FindNode("and_gate"); ok {
		t.Error("stale name still resolvable after rename")
	}
	if got, _ := n.FindNode("renamed"); got != ids["g1"] {
		t.Error("new name does not resolve")
	}
}

func TestNamesMatching(t *testing.T) {
	n, _ := buildToy(t)
	regs := n.NamesMatching(func(s string) bool { return s[0] == 'r' })
	if len(regs) != 2 {
		t.Fatalf("NamesMatching r* = %v", regs)
	}
	if regs[0] >= regs[1] {
		t.Error("NamesMatching result not sorted")
	}
}

func TestTopoOrderProperty(t *testing.T) {
	n, _ := buildToy(t)
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, id := range order {
		if !n.Node(id).Type.IsCombinational() {
			t.Fatalf("non-combinational node %d in topo order", id)
		}
		pos[id] = i
	}
	for _, id := range order {
		for _, f := range n.Node(id).Fanin {
			if n.Node(f).Type.IsCombinational() {
				if pos[f] >= pos[id] {
					t.Fatalf("fanin %d not before node %d", f, id)
				}
			}
		}
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := New(4)
	a := n.AddInput("a")
	// Build g1 = AND(a, g2), g2 = OR(g1, a): a combinational loop.
	// AddGate checks fanin range, so create with a placeholder then
	// patch the fanin directly to force the cycle.
	g1 := n.AddGate(And, a, a)
	g2 := n.AddGate(Or, g1, a)
	n.Node(g1).Fanin[1] = g2
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted a combinational cycle")
	}
}

func TestValidateArity(t *testing.T) {
	n := New(4)
	a := n.AddInput("a")
	g := n.AddGate(And, a, a)
	n.Node(g).Fanin = n.Node(g).Fanin[:1] // corrupt arity
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted 1-input AND")
	}
}

func TestAddGatePanics(t *testing.T) {
	n := New(4)
	a := n.AddInput("a")
	cases := []func(){
		func() { n.AddGate(DFF, a) },
		func() { n.AddGate(Inv, a, a) },
		func() { n.AddGate(Mux2, a, a) },
		func() { n.AddGate(And, a) },
		func() { n.AddGate(And, a, NodeID(99)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLevelsAndDepth(t *testing.T) {
	n, ids := buildToy(t)
	lvls, err := n.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lvls[ids["a"]] != 0 || lvls[ids["r1"]] != 0 {
		t.Error("sources should be level 0")
	}
	if lvls[ids["g1"]] != 1 || lvls[ids["g2"]] != 1 || lvls[ids["out"]] != 1 {
		t.Errorf("gate levels wrong: %v", lvls)
	}
	d, _ := n.Depth()
	if d != 1 {
		t.Errorf("Depth = %d, want 1", d)
	}
}

func TestDeepChainDepth(t *testing.T) {
	n := New(64)
	x := n.AddInput("x")
	cur := x
	for i := 0; i < 10; i++ {
		cur = n.AddGate(Inv, cur)
	}
	d, err := n.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 10 {
		t.Errorf("Depth = %d, want 10", d)
	}
}

func TestFanouts(t *testing.T) {
	n, ids := buildToy(t)
	fo := n.Fanouts()
	// a feeds g1 and out.
	if len(fo[ids["a"]]) != 2 {
		t.Errorf("fanout(a) = %v", fo[ids["a"]])
	}
	if len(fo[ids["out"]]) != 0 {
		t.Errorf("fanout(out) = %v", fo[ids["out"]])
	}
	// Cache must be invalidated by mutation.
	g := n.AddGate(Inv, ids["a"])
	_ = g
	fo2 := n.Fanouts()
	if len(fo2[ids["a"]]) != 3 {
		t.Errorf("fanout(a) after mutation = %v", fo2[ids["a"]])
	}
}

func TestUnrolledFaninCone(t *testing.T) {
	n, ids := buildToy(t)
	cone := n.UnrolledFaninCone([]NodeID{ids["out"]}, 3)
	// Depth 0: out, r2, a.
	d0 := cone.ByDepth[0]
	want0 := map[NodeID]bool{ids["out"]: true, ids["r2"]: true, ids["a"]: true}
	if len(d0) != len(want0) {
		t.Fatalf("depth0 = %v", d0)
	}
	for _, id := range d0 {
		if !want0[id] {
			t.Errorf("unexpected node %d at depth 0", id)
		}
	}
	// Depth 1: g2 (r2's data), r1, c.
	if !cone.Contains(ids["g2"], 1) || !cone.Contains(ids["r1"], 1) || !cone.Contains(ids["c"], 1) {
		t.Errorf("depth1 = %v", cone.ByDepth[1])
	}
	if cone.Contains(ids["g1"], 1) {
		t.Error("g1 should not be at depth 1")
	}
	// Depth 2: g1, a, b.
	if !cone.Contains(ids["g1"], 2) || !cone.Contains(ids["b"], 2) {
		t.Errorf("depth2 = %v", cone.ByDepth[2])
	}
	// Depth 3: nothing new beyond inputs; inputs terminate.
	if len(cone.ByDepth[3]) != 0 {
		t.Errorf("depth3 = %v, want empty", cone.ByDepth[3])
	}
}

func TestUnrolledFanoutCone(t *testing.T) {
	n, ids := buildToy(t)
	cone := n.UnrolledFanoutCone([]NodeID{ids["g1"]}, 3)
	// g1 feeds r1 (crossing → depth 1), then g2 at depth 1, r2 at depth 2, out at depth 2.
	if !cone.Contains(ids["g1"], 0) {
		t.Error("root missing at depth 0")
	}
	if !cone.Contains(ids["r1"], 1) || !cone.Contains(ids["g2"], 1) {
		t.Errorf("depth1 = %v", cone.ByDepth[1])
	}
	if !cone.Contains(ids["r2"], 2) || !cone.Contains(ids["out"], 2) {
		t.Errorf("depth2 = %v", cone.ByDepth[2])
	}
}

func TestConeHelpers(t *testing.T) {
	n, ids := buildToy(t)
	cone := n.UnrolledFaninCone([]NodeID{ids["out"]}, 2)
	regs := cone.FilterRegs(n)
	if len(regs[0]) != 1 || regs[0][0] != ids["r2"] {
		t.Errorf("regs depth0 = %v", regs[0])
	}
	comb := cone.FilterComb(n)
	if len(comb[0]) != 1 || comb[0][0] != ids["out"] {
		t.Errorf("comb depth0 = %v", comb[0])
	}
	all := cone.All()
	if len(all) < 6 {
		t.Errorf("All() = %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatal("All() not sorted/deduped")
		}
	}
	ds := cone.DepthsOf(ids["a"])
	if len(ds) != 2 { // a appears at depth 0 (via out) and depth 2 (via g1)
		t.Errorf("DepthsOf(a) = %v", ds)
	}
}

func TestMergeCones(t *testing.T) {
	n, ids := buildToy(t)
	c1 := n.UnrolledFaninCone([]NodeID{ids["out"]}, 1)
	c2 := n.UnrolledFanoutCone([]NodeID{ids["g1"]}, 2)
	m := Merge(c1, c2)
	if m.MaxDepth() != 3 {
		t.Fatalf("merged depth = %d", m.MaxDepth())
	}
	if !m.Contains(ids["out"], 0) || !m.Contains(ids["g1"], 0) {
		t.Error("merged cone missing roots at depth 0")
	}
	for _, layer := range m.ByDepth {
		for i := 1; i < len(layer); i++ {
			if layer[i] <= layer[i-1] {
				t.Fatal("merged layer not sorted/deduped")
			}
		}
	}
}

// TestMergeMatchesSetUnion compares Merge with a set union per depth on
// random sorted, duplicate-free layers of unequal depths, including
// empty layers on either side.
func TestMergeMatchesSetUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randCone := func(depth int) *Cone {
		c := &Cone{ByDepth: make([][]NodeID, depth)}
		for d := range c.ByDepth {
			for id := NodeID(0); id < 40; id++ {
				if rng.Intn(3) == 0 {
					c.ByDepth[d] = append(c.ByDepth[d], id)
				}
			}
		}
		return c
	}
	for trial := 0; trial < 200; trial++ {
		a, b := randCone(rng.Intn(4)), randCone(rng.Intn(4))
		m := Merge(a, b)
		if m.MaxDepth() != max(a.MaxDepth(), b.MaxDepth()) {
			t.Fatalf("merged depth %d of %d and %d", m.MaxDepth(), a.MaxDepth(), b.MaxDepth())
		}
		for d, layer := range m.ByDepth {
			in := map[NodeID]bool{}
			for _, c := range []*Cone{a, b} {
				if d < c.MaxDepth() {
					for _, id := range c.ByDepth[d] {
						in[id] = true
					}
				}
			}
			var want []NodeID
			for id := NodeID(0); id < 40; id++ {
				if in[id] {
					want = append(want, id)
				}
			}
			if !slices.Equal(layer, want) {
				t.Fatalf("trial %d depth %d: merged %v, union %v", trial, d, layer, want)
			}
		}
	}
}

func TestClone(t *testing.T) {
	n, ids := buildToy(t)
	c := n.Clone()
	c.SetName(ids["g1"], "clone_only")
	if _, ok := n.FindNode("clone_only"); ok {
		t.Error("clone shares name map with original")
	}
	c.Node(ids["g1"]).Fanin[0] = ids["c"]
	if n.Node(ids["g1"]).Fanin[0] == ids["c"] {
		t.Error("clone shares fanin slices with original")
	}
	if err := n.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}
}

func TestEvalCellTruthTables(t *testing.T) {
	const T, F = ^uint64(0), uint64(0)
	cases := []struct {
		t    CellType
		in   []uint64
		want uint64
	}{
		{Const0, nil, F},
		{Const1, nil, T},
		{Buf, []uint64{0xF0}, 0xF0},
		{Inv, []uint64{0xF0}, ^uint64(0xF0)},
		{And, []uint64{0xFF, 0x0F}, 0x0F},
		{And, []uint64{0xFF, 0x0F, 0x03}, 0x03},
		{Nand, []uint64{0xFF, 0x0F}, ^uint64(0x0F)},
		{Or, []uint64{0xF0, 0x0F}, 0xFF},
		{Or, []uint64{0x01, 0x02, 0x04}, 0x07},
		{Nor, []uint64{0xF0, 0x0F}, ^uint64(0xFF)},
		{Xor, []uint64{0xFF, 0x0F}, 0xF0},
		{Xnor, []uint64{0xFF, 0x0F}, ^uint64(0xF0)},
		{Mux2, []uint64{0xAA, 0xCC, F}, 0xAA},
		{Mux2, []uint64{0xAA, 0xCC, T}, 0xCC},
		{Mux2, []uint64{0xAA, 0xCC, 0x0F}, 0xAA&^0x0F | 0xCC&0x0F},
	}
	for _, c := range cases {
		if got := EvalCell(c.t, c.in); got != c.want {
			t.Errorf("EvalCell(%v, %x) = %x, want %x", c.t, c.in, got, c.want)
		}
	}
}

func TestEvalCellDeMorgan(t *testing.T) {
	f := func(a, b uint64) bool {
		nand := EvalCell(Nand, []uint64{a, b})
		orInv := EvalCell(Or, []uint64{^a, ^b})
		nor := EvalCell(Nor, []uint64{a, b})
		andInv := EvalCell(And, []uint64{^a, ^b})
		return nand == orInv && nor == andInv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalCellXorProperties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		// Associativity and self-inverse.
		x1 := EvalCell(Xor, []uint64{EvalCell(Xor, []uint64{a, b}), c})
		x2 := EvalCell(Xor, []uint64{a, EvalCell(Xor, []uint64{b, c})})
		self := EvalCell(Xor, []uint64{a, a})
		return x1 == x2 && self == 0 && EvalCell(Xnor, []uint64{a, b}) == ^EvalCell(Xor, []uint64{a, b})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalCellPanicsOnSequential(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EvalCell(DFF) should panic")
		}
	}()
	EvalCell(DFF, []uint64{0})
}

// randomDAG builds a random valid netlist: property test that TopoOrder
// always succeeds and respects dependencies on arbitrary DAGs.
func randomDAG(rng *rand.Rand, nGates int) *Netlist {
	n := New(nGates + 8)
	for i := 0; i < 4; i++ {
		n.AddInput("")
	}
	gateTypes := []CellType{Buf, Inv, And, Nand, Or, Nor, Xor, Xnor, Mux2}
	for i := 0; i < nGates; i++ {
		t := gateTypes[rng.Intn(len(gateTypes))]
		pick := func() NodeID { return NodeID(rng.Intn(n.NumNodes())) }
		switch t.FaninCount() {
		case 1:
			n.AddGate(t, pick())
		case 3:
			n.AddGate(t, pick(), pick(), pick())
		default:
			k := 2 + rng.Intn(3)
			fi := make([]NodeID, k)
			for j := range fi {
				fi[j] = pick()
			}
			n.AddGate(t, fi...)
		}
		if rng.Intn(5) == 0 {
			n.AddDFF(NodeID(rng.Intn(n.NumNodes())), "", rng.Intn(2) == 0)
		}
	}
	return n
}

func TestTopoOrderRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := randomDAG(rng, 100)
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		order, err := n.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pos := make(map[NodeID]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range order {
			for _, f := range n.Node(id).Fanin {
				if n.Node(f).Type.IsCombinational() && pos[f] >= pos[id] {
					t.Fatalf("trial %d: order violation", trial)
				}
			}
		}
	}
}

func TestStatsAndArea(t *testing.T) {
	n, _ := buildToy(t)
	s, err := ComputeStats(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 8 || s.Inputs != 3 || s.Registers != 2 || s.CombGates != 3 || s.Outputs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Area <= 0 {
		t.Error("area should be positive")
	}
	m := DefaultAreaModel()
	if ra := m.RegArea(n, n.Regs()); ra != 2*m.PerCell[DFF] {
		t.Errorf("RegArea = %v", ra)
	}
	// Wide gate costs more than 2-input gate.
	n2 := New(8)
	a := n2.AddInput("a")
	g2 := n2.AddGate(And, a, a)
	g4 := n2.AddGate(And, a, a, a, a)
	if m.CellArea(n2.Node(g4)) <= m.CellArea(n2.Node(g2)) {
		t.Error("wide AND should cost more area")
	}
}

func TestCellTypeString(t *testing.T) {
	if And.String() != "AND" || DFF.String() != "DFF" {
		t.Error("CellType.String wrong")
	}
	if CellType(200).String() == "" {
		t.Error("unknown cell type should still format")
	}
}

// bruteForceDepths computes, for every node, the set of unroll depths at
// which it can influence the root (forward false) or be influenced by
// it (forward true), by explicit recursive graph walking: an oracle for
// UnrolledFaninCone and UnrolledFanoutCone.
func bruteForceDepths(n *Netlist, root NodeID, maxDepth int, forward bool) map[NodeID]map[int]bool {
	out := map[NodeID]map[int]bool{}
	var visit func(id NodeID, d int)
	visit = func(id NodeID, d int) {
		if d > maxDepth {
			return
		}
		if out[id] == nil {
			out[id] = map[int]bool{}
		}
		if out[id][d] {
			return
		}
		out[id][d] = true
		if forward {
			for _, s := range n.Fanouts()[id] {
				if n.Node(s).Type == DFF {
					visit(s, d+1)
				} else {
					visit(s, d)
				}
			}
			return
		}
		nd := d
		if n.Node(id).Type == DFF {
			nd++
		}
		for _, f := range n.Node(id).Fanin {
			visit(f, nd)
		}
	}
	visit(root, 0)
	return out
}

// checkConeMatchesBruteForce compares every layer of the cone rooted at
// root with bruteForceDepths, on random DAGs.
func checkConeMatchesBruteForce(t *testing.T, seed int64, forward bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 20; trial++ {
		n := randomDAG(rng, 80)
		if len(n.Regs()) == 0 {
			continue
		}
		root := n.Regs()[rng.Intn(len(n.Regs()))]
		const maxDepth = 6
		cone := n.UnrolledFaninCone([]NodeID{root}, maxDepth)
		if forward {
			cone = n.UnrolledFanoutCone([]NodeID{root}, maxDepth)
		}
		want := bruteForceDepths(n, root, maxDepth, forward)
		for d := 0; d <= maxDepth; d++ {
			inLayer := map[NodeID]bool{}
			for _, id := range cone.ByDepth[d] {
				inLayer[id] = true
			}
			for id, depths := range want {
				if depths[d] != inLayer[id] {
					t.Fatalf("trial %d: node %d depth %d: cone=%v oracle=%v",
						trial, id, d, inLayer[id], depths[d])
				}
			}
			// No extras either.
			for id := range inLayer {
				if !want[id][d] {
					t.Fatalf("trial %d: node %d wrongly at depth %d", trial, id, d)
				}
			}
		}
	}
}

func TestUnrolledFaninConeMatchesBruteForce(t *testing.T) {
	checkConeMatchesBruteForce(t, 77, false)
}

func TestUnrolledFanoutConeMatchesBruteForce(t *testing.T) {
	checkConeMatchesBruteForce(t, 78, true)
}
