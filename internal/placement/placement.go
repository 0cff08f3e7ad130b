// Package placement assigns synthetic 2D coordinates to every node of a
// netlist. The fault model (internal/fault) maps a radiation strike with
// center gate g and radius r to the set of gates whose placed location
// lies within Euclidean distance r of g — the approach of Fazeli et al.
// (DATE'11, reference [18] of the paper), which only requires gate
// coordinates.
//
// Real designs come with a physical placement; this package substitutes a
// deterministic connectivity-aware heuristic (iterative barycentric
// relaxation with sort-based legalization) so that logically related
// gates land near each other, which is the property the multi-gate
// strike model exercises.
package placement

import (
	"math"
	"slices"

	"repro/internal/netlist"
)

// Point is a placed location in cell-pitch units.
type Point struct {
	X, Y float64
}

// Placement holds one location per netlist node. Every node sits on its
// own cell of a cols × rows grid of integer points, so radius queries
// read only the cells of the square window around their center.
type Placement struct {
	nl     *netlist.Netlist
	points []Point
	rows   int
	cols   int
	// cell[y*cols+x] is the node placed at grid point (x, y), Invalid
	// for an empty cell.
	cell []netlist.NodeID
}

// Iterations of barycentric relaxation. More iterations improve
// locality marginally; 12 is past the knee for the design sizes the
// framework targets.
const relaxIterations = 12

// Place computes a deterministic placement of the netlist.
func Place(nl *netlist.Netlist) *Placement {
	n := nl.NumNodes()
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols

	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: float64(i % cols), Y: float64(i / cols)}
	}

	fanouts := nl.Fanouts()
	next := make([]Point, n)
	order, tmp := make([]netlist.NodeID, n), make([]netlist.NodeID, n)
	for it := 0; it < relaxIterations; it++ {
		// Barycentric move: average of connected nodes.
		for i := 0; i < n; i++ {
			id := netlist.NodeID(i)
			sumX, sumY, cnt := pos[i].X, pos[i].Y, 1.0
			for _, f := range nl.Node(id).Fanin {
				sumX += pos[f].X
				sumY += pos[f].Y
				cnt++
			}
			for _, s := range fanouts[id] {
				sumX += pos[s].X
				sumY += pos[s].Y
				cnt++
			}
			next[i] = Point{X: sumX / cnt, Y: sumY / cnt}
		}
		legalize(next, pos, cols, rows, order, tmp)
	}
	cell := make([]netlist.NodeID, rows*cols)
	for i := range cell {
		cell[i] = netlist.Invalid
	}
	for i, pt := range pos {
		cell[int(pt.Y)*cols+int(pt.X)] = netlist.NodeID(i)
	}
	return &Placement{nl: nl, points: pos, rows: rows, cols: cols, cell: cell}
}

// legalize snaps relaxed positions back onto the grid: order the nodes
// by (X, id) to assign columns in balanced chunks, then each column by
// (Y, id). Both orders are total, so the result is deterministic. It is
// written into out; order and tmp are scratch of len(relaxed).
func legalize(relaxed, out []Point, cols, rows int, order, tmp []netlist.NodeID) {
	n := len(relaxed)
	for i := range order {
		order[i] = netlist.NodeID(i)
	}
	sortByX(order, tmp, relaxed)
	for c := 0; c < cols; c++ {
		lo := c * rows
		hi := lo + rows
		if lo >= n {
			break
		}
		if hi > n {
			hi = n
		}
		col := order[lo:hi]
		slices.SortFunc(col, func(a, b netlist.NodeID) int {
			switch ya, yb := relaxed[a].Y, relaxed[b].Y; {
			case ya < yb:
				return -1
			case ya > yb:
				return 1
			}
			return int(a - b)
		})
		for r, node := range col {
			out[node] = Point{X: float64(c), Y: float64(r)}
		}
	}
}

// sortByX sorts ids, given in rising id order, by their relaxed X. It
// is a stable LSD radix sort over the bits of X, a byte per pass, so
// ties keep id order. Every X is an average of grid coordinates, so it
// is ≥ 0 and its bits order as unsigned integers. The passes alternate
// between ids and tmp, and there are eight, so the result ends in ids.
func sortByX(ids, tmp []netlist.NodeID, relaxed []Point) {
	for shift := 0; shift < 64; shift += 8 {
		var start [256]int
		for _, id := range ids {
			start[math.Float64bits(relaxed[id].X)>>shift&0xff]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, id := range ids {
			d := math.Float64bits(relaxed[id].X) >> shift & 0xff
			tmp[start[d]] = id
			start[d]++
		}
		ids, tmp = tmp, ids
	}
}

// At returns the placed location of a node.
func (p *Placement) At(id netlist.NodeID) Point { return p.points[id] }

// NumPlaced returns the number of nodes the placement covers.
func (p *Placement) NumPlaced() int { return len(p.points) }

// Bounds returns the placement extent in cell pitches.
func (p *Placement) Bounds() (w, h float64) {
	return float64(p.cols - 1), float64(p.rows - 1)
}

// Dist returns the Euclidean distance between two placed nodes.
func (p *Placement) Dist(a, b netlist.NodeID) float64 {
	pa, pb := p.points[a], p.points[b]
	return math.Hypot(pa.X-pb.X, pa.Y-pb.Y)
}

// WithinRadius returns every node placed within Euclidean distance r of
// the center node, including the center itself, sorted by id.
func (p *Placement) WithinRadius(center netlist.NodeID, r float64) []netlist.NodeID {
	return p.within(center, r*r)
}

// within returns the nodes whose squared distance dx*dx+dy*dy from the
// center is at most r2, sorted by id. Nodes sit on integer grid points,
// so a node k columns or rows away has d2 >= k*k exactly, and only the
// cells of the square window of half-width reach(r2) can pass; the test
// itself is the one a scan of every node would make, so a NaN r2 holds
// no node.
func (p *Placement) within(center netlist.NodeID, r2 float64) []netlist.NodeID {
	c := p.points[center]
	k := p.reach(r2)
	cx, cy := int(c.X), int(c.Y)
	x0, x1 := max(cx-k, 0), min(cx+k, p.cols-1)
	y0, y1 := max(cy-k, 0), min(cy+k, p.rows-1)
	var out []netlist.NodeID
	for y := y0; y <= y1; y++ {
		for _, id := range p.cell[y*p.cols+x0 : y*p.cols+x1+1] {
			if id == netlist.Invalid {
				continue
			}
			pt := p.points[id]
			dx, dy := pt.X-c.X, pt.Y-c.Y
			if dx*dx+dy*dy <= r2 {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// reach returns the window half-width for squared radius r2: ⌊√r2⌋,
// which is never below the largest integer k with k*k <= r2 because
// math.Sqrt is correctly rounded (a wider window only tests more
// cells), capped at the grid's larger side, past which the window
// covers every cell (as it does for a NaN r2).
func (p *Placement) reach(r2 float64) int {
	span := max(p.cols, p.rows)
	if !(r2 < float64(span*span)) {
		return span
	}
	return int(math.Sqrt(r2))
}

// CombWithinRadius returns only the combinational gates (excluding
// constants) within the radius. These are the gates a radiation strike
// injects voltage transients into.
func (p *Placement) CombWithinRadius(center netlist.NodeID, r float64) []netlist.NodeID {
	all := p.WithinRadius(center, r)
	out := all[:0]
	for _, id := range all {
		t := p.nl.Node(id).Type
		if t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1 {
			out = append(out, id)
		}
	}
	return out
}

// SpotIndex answers repeated radius queries around the same centers
// without rescanning the whole placement. Per center it caches every
// node within a cap radius (grown on demand) and, per distinct distance
// below the cap, the spot of exactly that radius: its strikeable
// combinational gates with their placed distances, and its registers,
// in id order. Spots are nested and change only at those breakpoints,
// so a query picks the spot of the largest breakpoint within its radius
// instead of filtering candidates; each spot is built on its first
// query. The returned sets and distances are bit-identical to
// WithinRadius / CombWithinRadius / Dist. A SpotIndex is not safe for
// concurrent use; give each worker its own.
type SpotIndex struct {
	p       *Placement
	centers []spotEntry // indexed by center NodeID, empty until first queried
}

// spotEntry is one center's cache: what a query reads (the cap, the
// breakpoints, the spots), then the nodes within the cap, in id order,
// that the spots are built from.
type spotEntry struct {
	cap2 float64 // queries with r² <= cap2 are answered from the cache
	// bp holds the distinct values of d2 in rising order; spots[k] is
	// the spot of every radius r with bp[k] <= r² < bp[k+1].
	bp    []float64
	spots []spot
	ids   []netlist.NodeID
	d2    []float64 // squared distance — the WithinRadius filter quantity
	dist  []float64 // Dist(id, center) — the charge-sharing quantity
	comb  []bool    // strikeable combinational gate (excludes constants)
	dff   []bool
}

// spot is one cached radius query; its slices are shared and read-only.
type spot struct {
	built bool
	comb  []netlist.NodeID // strikeable combinational gates
	dist  []float64        // Dist(comb[i], center)
	dff   []netlist.NodeID
}

// Rebuilding a center's entry rescans the placement, so the cap is
// padded past the requested radius to absorb per-sample radius jitter.
const spotCapGrowth = 1.5

// NewSpotIndex returns an empty per-worker radius-query cache over p.
func (p *Placement) NewSpotIndex() *SpotIndex {
	return &SpotIndex{p: p, centers: make([]spotEntry, p.nl.NumNodes())}
}

// spotOf returns the cached spot of radius r around center, or nil when
// it holds no node (a NaN radius).
func (si *SpotIndex) spotOf(center netlist.NodeID, r float64) *spot {
	r2 := r * r
	e := &si.centers[center]
	if e.bp == nil || !(r2 <= e.cap2) {
		si.rebuild(e, center, r)
	}
	k := 0
	for k < len(e.bp) && e.bp[k] <= r2 {
		k++
	}
	if k == 0 {
		return nil
	}
	sp := &e.spots[k-1]
	if !sp.built {
		sp.fill(e, e.bp[k-1])
	}
	return sp
}

// rebuild collects every node within the padded cap of r around center
// from the grid window. Spots handed out before stay intact: fill
// allocates each spot's slices and never writes them again.
func (si *SpotIndex) rebuild(e *spotEntry, center netlist.NodeID, r float64) {
	capR := r * spotCapGrowth
	*e = spotEntry{cap2: capR * capR}
	p := si.p
	c := p.points[center]
	e.ids = p.within(center, e.cap2)
	for _, id := range e.ids {
		pt := p.points[id]
		dx, dy := pt.X-c.X, pt.Y-c.Y
		t := p.nl.Node(id).Type
		e.d2 = append(e.d2, dx*dx+dy*dy)
		e.dist = append(e.dist, p.Dist(id, center))
		e.comb = append(e.comb, t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1)
		e.dff = append(e.dff, t == netlist.DFF)
	}
	e.bp = slices.Clone(e.d2)
	slices.Sort(e.bp)
	e.bp = slices.Compact(e.bp)
	e.spots = make([]spot, len(e.bp))
}

// fill builds the spot from its entry's nodes within squared radius r2.
func (sp *spot) fill(e *spotEntry, r2 float64) {
	for i, d2 := range e.d2 {
		switch {
		case d2 > r2:
		case e.comb[i]:
			sp.comb = append(sp.comb, e.ids[i])
			sp.dist = append(sp.dist, e.dist[i])
		case e.dff[i]:
			sp.dff = append(sp.dff, e.ids[i])
		}
	}
	sp.built = true
}

// CombWithin returns the strikeable combinational gates within r of
// center — the set CombWithinRadius returns, in the same id order —
// together with each gate's placed distance from the center. The
// returned slices are shared by every query of the same spot and must
// not be modified.
func (si *SpotIndex) CombWithin(center netlist.NodeID, r float64) ([]netlist.NodeID, []float64) {
	if sp := si.spotOf(center, r); sp != nil {
		return sp.comb, sp.dist
	}
	return nil, nil
}

// DFFWithin returns the registers within r of center, in id order — the
// DFF subset of WithinRadius. The returned slice is shared by every
// query of the same spot and must not be modified.
func (si *SpotIndex) DFFWithin(center netlist.NodeID, r float64) []netlist.NodeID {
	if sp := si.spotOf(center, r); sp != nil {
		return sp.dff
	}
	return nil
}
