package placement

import (
	"math"
	"sort"

	"repro/internal/netlist"
)

// PlaceSortSlice returns the points Place computed before legalization
// sorted by key: the same relaxation, legalized with closure-based
// sort.Slice calls (legalizeSortSlice). It is the oracle of Place.
func PlaceSortSlice(nl *netlist.Netlist) []Point {
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
	for it := 0; it < relaxIterations; it++ {
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
		legalizeSortSlice(next, pos, cols, rows)
	}
	return pos
}

// legalizeSortSlice is legalize with one sort.Slice over every node by
// (X, id) and one per column by (Y, id).
func legalizeSortSlice(relaxed []Point, out []Point, cols, rows int) {
	n := len(relaxed)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if relaxed[ia].X != relaxed[ib].X {
			return relaxed[ia].X < relaxed[ib].X
		}
		return ia < ib
	})
	for c := 0; c < cols; c++ {
		lo := c * rows
		hi := lo + rows
		if lo >= n {
			break
		}
		if hi > n {
			hi = n
		}
		col := idx[lo:hi]
		sort.Slice(col, func(a, b int) bool {
			if relaxed[col[a]].Y != relaxed[col[b]].Y {
				return relaxed[col[a]].Y < relaxed[col[b]].Y
			}
			return col[a] < col[b]
		})
		for r, node := range col {
			out[node] = Point{X: float64(c), Y: float64(r)}
		}
	}
}

// Points returns the placed points in id order.
func (p *Placement) Points() []Point { return p.points }

// Diameter returns the diagonal of the placement bounding box; a strike
// radius at or above this value covers every gate.
func (p *Placement) Diameter() float64 {
	w, h := p.Bounds()
	return math.Hypot(w, h)
}

// MeanNeighborDist reports the average placed distance between connected
// nodes — the quality metric used by tests to check that the relaxation
// actually produces locality (it must beat a row-major id layout).
func (p *Placement) MeanNeighborDist() float64 {
	total, cnt := 0.0, 0
	for i := 0; i < p.nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		for _, f := range p.nl.Node(id).Fanin {
			total += p.Dist(id, f)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return total / float64(cnt)
}

// WithinRadiusScan is the radius query as a scan of every placed node:
// the oracle of the grid-window WithinRadius.
func (p *Placement) WithinRadiusScan(center netlist.NodeID, r float64) []netlist.NodeID {
	c := p.points[center]
	r2 := r * r
	var out []netlist.NodeID
	for i, pt := range p.points {
		dx, dy := pt.X-c.X, pt.Y-c.Y
		if dx*dx+dy*dy <= r2 {
			out = append(out, netlist.NodeID(i))
		}
	}
	return out
}
