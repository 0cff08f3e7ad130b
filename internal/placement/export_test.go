package placement

import (
	"math"

	"repro/internal/netlist"
)

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
