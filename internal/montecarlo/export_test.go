package montecarlo

// BatchCounts exposes the batched-resume counters to the external tests
// (see batchCounts). All are zero before the first batched run.
type BatchCounts = batchCounts

// BatchCounts returns the engine's batched-resume counters so far.
func (e *Engine) BatchCounts() BatchCounts {
	if e.batch == nil {
		return BatchCounts{}
	}
	return e.batch.counts
}

// DropSpotCache discards the engine's radius-query cache, so the next
// spot lookup rebuilds it from the placement.
func (e *Engine) DropSpotCache() { e.spots = nil }
