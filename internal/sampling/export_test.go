package sampling

// Allocation returns a copy of the per-stratum draw fractions.
func (s *Stratified) Allocation() []float64 {
	return append([]float64(nil), s.alloc...)
}
