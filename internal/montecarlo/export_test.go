package montecarlo

import "repro/internal/fault"

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

// SpotRecordRejects reports whether the batched path rejects a
// single-cycle gate sample in the attack window before its spot
// lookup, from the spot records of the engine's attack. It builds what
// the first gate-attack sample builds.
func (e *Engine) SpotRecordRejects(s fault.Sample) bool {
	b := e.ensureBatchState(GateAttack)
	i := e.golden.TargetCycle - s.T - b.lo
	return !b.spots.mayLatch(b.cycle[i], i, s)
}
