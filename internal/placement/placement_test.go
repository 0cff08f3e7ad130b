package placement

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// chainNetlist builds a long inverter chain: the strongest possible
// locality structure (each gate connects only to its neighbor).
func chainNetlist(n int) *netlist.Netlist {
	nl := netlist.New(n + 1)
	cur := nl.AddInput("in")
	for i := 0; i < n; i++ {
		cur = nl.AddGate(netlist.Inv, cur)
	}
	return nl
}

func randomNetlist(rng *rand.Rand, nGates int) *netlist.Netlist {
	nl := netlist.New(nGates + 8)
	for i := 0; i < 8; i++ {
		nl.AddInput("")
	}
	for i := 0; i < nGates; i++ {
		a := netlist.NodeID(rng.Intn(nl.NumNodes()))
		b := netlist.NodeID(rng.Intn(nl.NumNodes()))
		nl.AddGate(netlist.Nand, a, b)
	}
	return nl
}

func TestPlacementIsLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nl := randomNetlist(rng, 300)
	p := Place(nl)
	seen := map[[2]int]bool{}
	w, h := p.Bounds()
	for i := 0; i < nl.NumNodes(); i++ {
		pt := p.At(netlist.NodeID(i))
		if pt.X < 0 || pt.Y < 0 || pt.X > w || pt.Y > h {
			t.Fatalf("node %d at %+v outside bounds (%v, %v)", i, pt, w, h)
		}
		key := [2]int{int(pt.X), int(pt.Y)}
		if seen[key] {
			t.Fatalf("two nodes share slot %v", key)
		}
		seen[key] = true
		if pt.X != math.Trunc(pt.X) || pt.Y != math.Trunc(pt.Y) {
			t.Fatalf("node %d not on grid: %+v", i, pt)
		}
	}
}

func TestPlacementDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nl := randomNetlist(rng, 200)
	p1 := Place(nl)
	p2 := Place(nl)
	for i := 0; i < nl.NumNodes(); i++ {
		if p1.At(netlist.NodeID(i)) != p2.At(netlist.NodeID(i)) {
			t.Fatal("placement not deterministic")
		}
	}
}

func TestPlacementLocalityBeatsIdentity(t *testing.T) {
	nl := chainNetlist(400)
	p := Place(nl)
	got := p.MeanNeighborDist()
	// Row-major by id on a chain gives mean neighbor distance 1 only
	// along rows but jumps at row ends; relaxed placement should keep
	// neighbors within a couple of pitches on average.
	if got > 3.0 {
		t.Fatalf("mean neighbor distance %.2f too large for a chain", got)
	}
	// And on a random graph, it must beat the naive row-major layout.
	rng := rand.New(rand.NewSource(3))
	rnl := randomNetlist(rng, 400)
	rp := Place(rnl)
	naive := naiveMeanNeighborDist(rnl)
	if rp.MeanNeighborDist() >= naive {
		t.Fatalf("relaxation (%.2f) did not beat row-major (%.2f)", rp.MeanNeighborDist(), naive)
	}
}

func naiveMeanNeighborDist(nl *netlist.Netlist) float64 {
	n := nl.NumNodes()
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	at := func(id netlist.NodeID) (float64, float64) {
		return float64(int(id) % cols), float64(int(id) / cols)
	}
	total, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		id := netlist.NodeID(i)
		x1, y1 := at(id)
		for _, f := range nl.Node(id).Fanin {
			x2, y2 := at(f)
			total += math.Hypot(x1-x2, y1-y2)
			cnt++
		}
	}
	return total / float64(cnt)
}

func TestWithinRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nl := randomNetlist(rng, 150)
	p := Place(nl)
	center := netlist.NodeID(20)
	// Radius 0 includes exactly the center (slots are unique).
	got := p.WithinRadius(center, 0)
	if len(got) != 1 || got[0] != center {
		t.Fatalf("radius 0: %v", got)
	}
	// Monotonicity: larger radius includes at least as many nodes.
	prev := 0
	for _, r := range []float64{1, 2, 4, 8, 1e9} {
		in := p.WithinRadius(center, r)
		if len(in) < prev {
			t.Fatalf("radius %v shrank the set", r)
		}
		for _, id := range in {
			if p.Dist(center, id) > r+1e-9 {
				t.Fatalf("node %d outside radius %v", id, r)
			}
		}
		prev = len(in)
	}
	// Huge radius covers everything.
	if got := p.WithinRadius(center, p.Diameter()); len(got) != nl.NumNodes() {
		t.Fatalf("diameter radius covered %d of %d", len(got), nl.NumNodes())
	}
}

func TestCombWithinRadiusFilters(t *testing.T) {
	nl := netlist.New(16)
	in := nl.AddInput("in")
	g := nl.AddGate(netlist.Inv, in)
	nl.AddDFF(g, "r", false)
	nl.AddConst(true)
	p := Place(nl)
	comb := p.CombWithinRadius(g, 1e9)
	if len(comb) != 1 || comb[0] != g {
		t.Fatalf("CombWithinRadius = %v, want just the INV", comb)
	}
}

func TestSingleNodePlacement(t *testing.T) {
	nl := netlist.New(1)
	in := nl.AddInput("in")
	p := Place(nl)
	if p.At(in) != (Point{0, 0}) {
		t.Fatalf("single node at %+v", p.At(in))
	}
	if p.Diameter() != 0 {
		t.Fatal("diameter of single node should be 0")
	}
}

// mixedNetlist builds a design with every node class a spot can hold:
// inputs, constants, combinational gates and registers.
func mixedNetlist(rng *rand.Rand) *netlist.Netlist {
	nl := netlist.New(256)
	pool := []netlist.NodeID{nl.AddConst(false), nl.AddConst(true)}
	for i := 0; i < 8; i++ {
		pool = append(pool, nl.AddInput(""))
	}
	pick := func() netlist.NodeID { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 180; i++ {
		if i%5 == 4 {
			pool = append(pool, nl.AddDFF(pick(), "", false))
		} else {
			pool = append(pool, nl.AddGate(netlist.Nand, pick(), pick()))
		}
	}
	return nl
}

// TestSpotIndexMatchesRadiusQueries compares every SpotIndex answer with
// the scanning queries it caches, for every node as center: CombWithin
// with CombWithinRadius and bit-equal Dist values, DFFWithin with the
// registers of WithinRadius. The radii span [0, 3], on and just below
// the grid breakpoints 1, √2, 2 and √5, in rising order (each step past
// the padded cap forces a rebuild) and in falling order. A spot handed
// out before a rebuild must stay intact.
func TestSpotIndexMatchesRadiusQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nl := mixedNetlist(rng)
	p := Place(nl)
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	radii := []float64{0, 0.3, below(1), 1, 1.2, below(math.Sqrt2), math.Sqrt2, 1.5,
		below(2), 2, 2.1, below(math.Sqrt(5)), math.Sqrt(5), 2.5, 2.9, 3}
	falling := slices.Clone(radii)
	slices.Reverse(falling)
	for _, order := range [][]float64{radii, falling} {
		si := p.NewSpotIndex()
		var early []netlist.NodeID
		firstCap := -1.0
		for _, r := range order {
			for i := 0; i < nl.NumNodes(); i++ {
				c := netlist.NodeID(i)
				gates, dists := si.CombWithin(c, r)
				if want := p.CombWithinRadius(c, r); !slices.Equal(gates, want) {
					t.Fatalf("center %d r %v: CombWithin %v, CombWithinRadius %v", c, r, gates, want)
				}
				if len(dists) != len(gates) {
					t.Fatalf("center %d r %v: %d distances for %d gates", c, r, len(dists), len(gates))
				}
				for j, g := range gates {
					if math.Float64bits(dists[j]) != math.Float64bits(p.Dist(g, c)) {
						t.Fatalf("center %d r %v: gate %d distance %v, Dist %v", c, r, g, dists[j], p.Dist(g, c))
					}
				}
				var wantDFF []netlist.NodeID
				for _, id := range p.WithinRadius(c, r) {
					if nl.Node(id).Type == netlist.DFF {
						wantDFF = append(wantDFF, id)
					}
				}
				if got := si.DFFWithin(c, r); !slices.Equal(got, wantDFF) {
					t.Fatalf("center %d r %v: DFFWithin %v, want %v", c, r, got, wantDFF)
				}
				if i == 0 && r == 1 {
					early = gates
				}
			}
			if firstCap < 0 {
				firstCap = si.centers[0].cap2
			}
		}
		if want := p.CombWithinRadius(0, 1); !slices.Equal(early, want) {
			t.Fatalf("spot of radius 1 changed to %v after later queries, want %v", early, want)
		}
		if order[0] == 0 && si.centers[0].cap2 == firstCap {
			t.Fatal("rising radii never rebuilt the entry cached for radius 0")
		}
	}
}

// TestGridQueriesMatchScan compares the grid-window answers of
// WithinRadius, CombWithinRadius and SpotIndex with a scan of every
// placed node, for every node as center, on grids with empty cells. The
// radii cover 0, the breakpoints 1, √2 and 2, values between them and
// just below them, a radius past the grid, a negative radius (its square
// is the query), NaN (no node) and +Inf (every node).
func TestGridQueriesMatchScan(t *testing.T) {
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	radii := []float64{0, 0.9, 1, math.Sqrt2, 1.5, 2, 2.1, 3.15, 100, -1.5, math.NaN(), math.Inf(1),
		below(1), below(2), below(3), below(math.Sqrt2)}
	rng := rand.New(rand.NewSource(11))
	for _, nl := range []*netlist.Netlist{mixedNetlist(rng), randomNetlist(rng, 300), chainNetlist(40)} {
		p := Place(nl)
		si := p.NewSpotIndex()
		for _, r := range radii {
			for i := 0; i < nl.NumNodes(); i++ {
				c := netlist.NodeID(i)
				want := p.WithinRadiusScan(c, r)
				if got := p.WithinRadius(c, r); !slices.Equal(got, want) {
					t.Fatalf("%d nodes, center %d r %v: WithinRadius %v, scan %v", nl.NumNodes(), c, r, got, want)
				}
				var wantComb, wantDFF []netlist.NodeID
				for _, id := range want {
					switch ty := nl.Node(id).Type; {
					case ty.IsCombinational() && ty != netlist.Const0 && ty != netlist.Const1:
						wantComb = append(wantComb, id)
					case ty == netlist.DFF:
						wantDFF = append(wantDFF, id)
					}
				}
				if got := p.CombWithinRadius(c, r); !slices.Equal(got, wantComb) {
					t.Fatalf("%d nodes, center %d r %v: CombWithinRadius %v, scan %v", nl.NumNodes(), c, r, got, wantComb)
				}
				gates, dists := si.CombWithin(c, r)
				if !slices.Equal(gates, wantComb) {
					t.Fatalf("%d nodes, center %d r %v: CombWithin %v, scan %v", nl.NumNodes(), c, r, gates, wantComb)
				}
				for j, g := range gates {
					if math.Float64bits(dists[j]) != math.Float64bits(p.Dist(g, c)) {
						t.Fatalf("center %d r %v: gate %d distance %v, Dist %v", c, r, g, dists[j], p.Dist(g, c))
					}
				}
				if got := si.DFFWithin(c, r); !slices.Equal(got, wantDFF) {
					t.Fatalf("%d nodes, center %d r %v: DFFWithin %v, scan %v", nl.NumNodes(), c, r, got, wantDFF)
				}
			}
		}
	}
}

// TestLegalizeMatchesSortSlice compares legalize with the sort.Slice
// legalization on random relaxed points: drawn from a few values, so
// most X and most Y tie; spread over the grid like real relaxed
// coordinates; and spread over many binary orders of magnitude, with
// zeros, so every byte of the radix keys varies. Sizes include grids
// whose last column is partial and a single node.
func TestLegalizeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		rows := (n + cols - 1) / cols
		levels := 1 + rng.Intn(6)
		relaxed := make([]Point, n)
		for i := range relaxed {
			switch trial % 3 {
			case 0:
				relaxed[i] = Point{X: float64(rng.Intn(levels)) / 3, Y: float64(rng.Intn(levels)) / 2}
			case 1:
				relaxed[i] = Point{X: rng.Float64() * float64(cols-1), Y: rng.Float64() * float64(rows-1)}
			default:
				scale := math.Ldexp(1, rng.Intn(120)-60)
				relaxed[i] = Point{X: float64(rng.Intn(3)) * rng.Float64() * scale, Y: float64(rng.Intn(levels))}
			}
		}
		got, want := make([]Point, n), make([]Point, n)
		legalize(relaxed, got, cols, rows, make([]netlist.NodeID, n), make([]netlist.NodeID, n))
		legalizeSortSlice(relaxed, want, cols, rows)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("trial %d (%d nodes): node %d at %v, sort.Slice puts it at %v", trial, n, i, got[i], want[i])
		}
	}
}

// TestPlaceMatchesSortSlice compares whole placements with the
// sort.Slice legalization on random netlists, a chain, and netlists
// where most nodes are unconnected inputs, whose relaxed coordinates
// stay on the grid and tie by whole columns and rows.
func TestPlaceMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	nls := []*netlist.Netlist{chainNetlist(100), mixedNetlist(rng), netlist.New(0)}
	for trial := 0; trial < 10; trial++ {
		nls = append(nls, randomNetlist(rng, 20+rng.Intn(400)))
		nl := netlist.New(300)
		for i := 0; i < 50+rng.Intn(250); i++ {
			nl.AddInput("")
		}
		for i := 0; i < rng.Intn(20); i++ {
			nl.AddGate(netlist.Nand, netlist.NodeID(rng.Intn(nl.NumNodes())), netlist.NodeID(rng.Intn(nl.NumNodes())))
		}
		nls = append(nls, nl)
	}
	for i, nl := range nls {
		got, want := Place(nl).Points(), PlaceSortSlice(nl)
		if j := firstDiff(got, want); j >= 0 {
			t.Fatalf("netlist %d (%d nodes): node %d at %v, sort.Slice puts it at %v", i, nl.NumNodes(), j, got[j], want[j])
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []Point) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
