package sampling

import "repro/internal/netlist"

// CenterProb returns the cone sampler's g_{P|T}(center | t): uniform
// over the layer Ω_t, 0 off it.
func (c *Cone) CenterProb(t int, center netlist.NodeID) float64 {
	if t < 0 || t >= len(c.layers) {
		return 0
	}
	for _, g := range c.layers[t] {
		if g == center {
			return 1 / float64(len(c.layers[t]))
		}
	}
	return 0
}

// Allocation returns a copy of the per-stratum draw fractions.
func (s *Stratified) Allocation() []float64 {
	return append([]float64(nil), s.alloc...)
}
