package montecarlo

// GroupCounts exposes the grouped-resume counters to the external tests:
// groups run (classes and splits), groups started by a later split,
// lanes ejected into groups, and grouped lanes retired through the
// convergence cut. All are zero before the first batched run.
func (e *Engine) GroupCounts() (groups, splits, lanes, cut int) {
	if e.batch == nil {
		return 0, 0, 0, 0
	}
	b := e.batch
	return b.nGroups, b.nSplits, b.nLanes, b.nCut
}

// DropSpotCache discards the engine's radius-query cache, so the next
// spot lookup rebuilds it from the placement.
func (e *Engine) DropSpotCache() { e.spots = nil }
