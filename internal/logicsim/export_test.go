package logicsim

import "repro/internal/netlist"

// CaptureScalar runs the simulator for the given number of cycles,
// calling drive(cycle) before each cycle's evaluation so the caller can
// set primary inputs, and records the value of every node at every
// cycle. The simulator is stepped (registers advance) after each record.
func CaptureScalar(sim *Simulator, cycles int, drive func(cycle int)) *Trace {
	t := NewTrace(sim.Netlist(), cycles)
	for c := 0; c < cycles; c++ {
		if drive != nil {
			drive(c)
		}
		sim.Eval()
		t.RecordAll(sim, c)
		sim.Latch()
	}
	return t
}

// SetInputBool drives a primary input with the same value in all lanes.
func (s *Simulator) SetInputBool(id netlist.NodeID, v bool) {
	if v {
		s.SetInput(id, AllLanes)
	} else {
		s.SetInput(id, 0)
	}
}

// DriveWordLanes drives the listed input nodes (LSB first) with per-lane
// values: vals[lane] supplies the multi-bit value for that lane.
func (s *Simulator) DriveWordLanes(bits []netlist.NodeID, vals []uint64) {
	if len(vals) > 64 {
		panic("logicsim: more than 64 lanes")
	}
	for i, id := range bits {
		var word uint64
		for lane, v := range vals {
			if v>>uint(i)&1 == 1 {
				word |= 1 << uint(lane)
			}
		}
		s.SetInput(id, word)
	}
}

// CaptureParallel produces the same trace as CaptureScalar but fills the
// combinational nodes with 64-cycle bit-parallel evaluation passes: the
// scalar pass records only source values (inputs and registers), and one
// combinational evaluation per 64-cycle block recovers every gate's
// values. This mirrors the paper's two-phase flow — RTL simulation for
// register values, then bit-parallel recovery at gate level.
func CaptureParallel(sim *Simulator, cycles int, drive func(cycle int)) *Trace {
	t := NewTrace(sim.Netlist(), cycles)
	for c := 0; c < cycles; c++ {
		if drive != nil {
			drive(c)
		}
		sim.Eval()
		t.RecordSources(sim, c)
		sim.Latch()
	}
	t.FillCombParallel(sim)
	return t
}

// SetReferenceEval switches Eval/Latch between the compiled SoA plan
// (the default) and the original pointer-walking sweep over
// netlist.Node. The two are bit-identical; the reference path exists
// for equivalence testing and debugging. Forks inherit the setting.
func (s *Simulator) SetReferenceEval(on bool) { s.reference = on }

// Lane returns the given lane of the node's output net.
func (s *Simulator) Lane(id netlist.NodeID, lane int) bool {
	return s.vals[id]>>uint(lane)&1 == 1
}
