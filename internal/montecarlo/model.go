package montecarlo

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// model is what one evaluation derives from its golden run, its delay
// model and its attack, all fixed for the whole evaluation: the golden
// artifacts, the golden state at every cycle of the attack window, and
// the window's gate-attack tables. RunGolden builds it and every engine
// cloned from that engine points at it. Nothing writes it after the
// build except the one-time build of the gate tables, so the engines of
// a pool read it concurrently.
type model struct {
	golden *Golden
	// lo = TargetCycle - TRange + 1 (clamped to 0) is the first
	// recorded injection cycle, the earliest a draw can reach (every
	// sampler draws T < TRange); markedResp = TargetCycle + 1 is the
	// cycle the marked response is consumed — no resume runs past it
	// without diverging.
	lo         int
	markedResp int
	// snaps[c-snapLo] is the golden state at the beginning of cycle c,
	// for snapLo <= c <= markedResp. snapLo is lo-1 (clamped to 0):
	// the glitch model warms up to the cycle before its injection, and
	// lane-batched resumes that diverge restore the cycle they diverge
	// at, up to markedResp.
	snapLo int
	snaps  []*soc.Checkpoint
	// comb[c-lo] is a bitset over node IDs of the golden post-Eval
	// values during cycle c (injection cycles lo <= c <= TargetCycle) —
	// exactly what a scalar StepInject would hand the inject callback.
	comb [][]uint64

	// gate holds the window's gate-attack tables; gateOnce builds them
	// on the first gate campaign or RunBatch of any of the model's
	// engines (register attacks never read them).
	gateOnce sync.Once
	gate     gateTables
}

// gateTables are the gate-attack tables of a model's window.
type gateTables struct {
	// cycle[c-lo] is the timed injection's table for cycle c: its flip
	// tables, latch bound and sweep mask.
	cycle []*timingsim.CycleTable
	// spots holds the spot records of the model's attack.
	spots *spotTable
}

// newModel walks the attack window of the golden run g once on s,
// recording the golden state at the beginning of each of its cycles
// and the post-Eval node values of each injection cycle.
func newModel(s *soc.SoC, g *Golden, attack *fault.Attack) *model {
	lo := max(g.TargetCycle-attack.TRange+1, 0)
	m := &model{golden: g, lo: lo, markedResp: g.TargetCycle + 1, snapLo: max(lo-1, 0)}
	nn := s.MPU.Netlist.NumNodes()
	g.stepTo(s, m.snapLo)
	m.snaps = append(m.snaps, s.Snapshot())
	for c := m.snapLo; c < m.markedResp; c++ {
		if c < lo {
			s.Step()
		} else {
			bitset := make([]uint64, (nn+63)/64)
			s.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
				for i := 0; i < nn; i++ {
					if values(netlist.NodeID(i)) {
						bitset[i>>6] |= 1 << uint(i&63)
					}
				}
				return nil
			})
			m.comb = append(m.comb, bitset)
		}
		m.snaps = append(m.snaps, s.Snapshot())
	}
	return m
}

// restoreTo rewinds the SoC to the exact cycle: one Restore of the
// model's snapshot inside the attack window, otherwise a restore of the
// latest golden checkpoint at or before the cycle and steps from it.
func (e *Engine) restoreTo(cycle int) {
	m := e.m
	if i := cycle - m.snapLo; 0 <= i && i < len(m.snaps) {
		e.SoC.Restore(m.snaps[i])
		return
	}
	m.golden.stepTo(e.SoC, cycle)
}

// tablesFor returns the model's gate-attack tables for a run in the
// given mode, building them if no engine of the model has yet; nil for
// register attacks.
func (e *Engine) tablesFor(mode Mode) *gateTables {
	if mode != GateAttack {
		return nil
	}
	m := e.m
	m.gateOnce.Do(func() {
		m.gate.cycle = e.Timing.CycleTables(m.comb)
		m.gate.spots = e.newSpotTable(m.gate.cycle)
	})
	return &m.gate
}
