package soc

import (
	"testing"

	"repro/internal/logicsim"
)

// BenchmarkMPUEval compares the committed generated evaluator against
// the interpreted op stream on the bundled MPU, per 64-lane
// combinational pass. The campaign-level gap in BENCH_campaign.json is
// this one diluted by the timed injection, RTL and bookkeeping share of
// a sample.
func BenchmarkMPUEval(b *testing.B) {
	mpu, err := BuildMPU(DefaultMPUConfig())
	if err != nil {
		b.Fatal(err)
	}
	prev := logicsim.SetGeneratedEnabled(false)
	interp, errI := logicsim.New(mpu.Netlist)
	logicsim.SetGeneratedEnabled(prev)
	if errI != nil {
		b.Fatal(errI)
	}
	gen, err := logicsim.New(mpu.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		sim  *logicsim.Simulator
	}{{"interp", interp}, {"codegen", gen}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.sim.Eval()
			}
		})
	}
}

// BenchmarkMPULatch prices one register latch of the bundled MPU, and
// BenchmarkMPUDriveBusTrace one cycle's replay of the recorded bus
// interface onto its input ports: the two per-cycle costs of a
// lane-batched resume next to Eval.
func BenchmarkMPULatch(b *testing.B) {
	mpu, err := BuildMPU(DefaultMPUConfig())
	if err != nil {
		b.Fatal(err)
	}
	sim, err := logicsim.New(mpu.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sim.Latch()
	}
}

func BenchmarkMPUDriveBusTrace(b *testing.B) {
	mpu, err := BuildMPU(DefaultMPUConfig())
	if err != nil {
		b.Fatal(err)
	}
	sim, err := logicsim.New(mpu.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	ent := BusTraceEntry{Valid: true, Write: true, Addr: 0x1234, CfgAddr: 5, CfgWData: 0xbeef}
	for i := 0; i < b.N; i++ {
		mpu.DriveBusTrace(sim, &ent)
	}
}
