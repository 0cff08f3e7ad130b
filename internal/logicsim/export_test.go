package logicsim

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
