package timingsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// latchTally counts, over non-empty strikes, how many MayLatch rejected
// and how many latched a register.
type latchTally struct {
	strikes, rejected, latched int
}

// checkSound requires that a strike MayLatch rejects latches nothing
// in either sweep, and tallies the outcome.
func checkSound(t *testing.T, label string, sparse, dense *timingsim.Simulator,
	values func(netlist.NodeID) bool, st timingsim.Strike, n *latchTally) {
	t.Helper()
	may := sparse.MayLatch(st)
	rs := sparse.Inject(values, st)
	if !may {
		if rd := dense.Inject(values, st); len(rs.FlippedRegs) != 0 || len(rd.FlippedRegs) != 0 {
			t.Fatalf("%s: MayLatch false but sparse flipped %v, reference flipped %v (strike %+v)",
				label, rs.FlippedRegs, rd.FlippedRegs, st)
		}
	}
	if len(st.Gates) == 0 {
		return
	}
	n.strikes++
	if !may {
		n.rejected++
	}
	if len(rs.FlippedRegs) > 0 {
		n.latched++
	}
}

// TestMayLatchSound checks the static latch bound against the timed
// sweep: whenever MayLatch says no, neither the sparse nor the dense
// reference Inject may latch a register. It runs over random designs
// and over the bundled MPU at every attack-window cycle with
// importance-sampler strikes, and requires the bound to reject a real
// share of the MPU's strikes, so an always-true MayLatch fails, and
// pins the bound's edge at the end of the latching window.
func TestMayLatchSound(t *testing.T) {
	dm := timingsim.DefaultDelayModel()
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		var n latchTally
		for design := 0; design < 4; design++ {
			nl := timingsim.BuildRandomDesign(rng)
			sparse, dense := simPair(t, nl, dm)
			for trial := 0; trial < 2000; trial++ {
				values := timingsim.RandomValues(rng, nl.NumNodes())
				st := timingsim.RandomStrike(rng, dm, nl.NumNodes())
				checkSound(t, "random design", sparse, dense, values, st, &n)
			}
		}
		t.Logf("random designs: %d strikes, %d rejected, %d latched", n.strikes, n.rejected, n.latched)
		if n.rejected == 0 || n.latched == 0 {
			t.Fatalf("need both rejected and latching strikes: %+v", n)
		}
	})
	t.Run("mpu", func(t *testing.T) {
		// A shortened pre-characterization, as in the montecarlo tests.
		opts := core.DefaultOptions()
		opts.Precharac.MaxDepth = 51
		opts.Precharac.TraceCycles = 768
		opts.Precharac.LifetimeCap = 120
		opts.Precharac.Probes = 1
		fw, err := core.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := ev.ImportanceSampler()
		if err != nil {
			t.Fatal(err)
		}
		sparse, dense := simPair(t, fw.MPU.Netlist, fw.Opts.Delay)
		s, err := soc.WithMPU(fw.Opts.SoC, ev.Program, fw.MPU)
		if err != nil {
			t.Fatal(err)
		}
		g := ev.Golden
		lo := max(g.TargetCycle-ev.Attack.TRange, 0)
		idx := min(lo/g.Interval, len(g.Checkpoints)-1)
		for idx > 0 && g.Checkpoints[idx].Cycle > lo {
			idx--
		}
		s.Restore(g.Checkpoints[idx])
		for s.Cycle() < lo {
			s.Step()
		}
		rng := rand.New(rand.NewSource(5))
		var n latchTally
		for c := lo; c <= g.TargetCycle; c++ {
			s.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
				for i := 0; i < 60; i++ {
					smp, _ := sampler.Draw(rng)
					checkSound(t, "mpu", sparse, dense, values, ev.Attack.Strike(fw.Place, smp), &n)
				}
				return nil
			})
		}
		t.Logf("MPU cycles %d..%d: %d strikes, %d rejected, %d latched",
			lo, g.TargetCycle, n.strikes, n.rejected, n.latched)
		if n.latched == 0 {
			t.Fatal("no MPU strike latched a register")
		}
		if share := float64(n.rejected) / float64(n.strikes); share < 0.40 {
			t.Fatalf("MayLatch rejected %.1f%% of MPU strikes, want at least 40%%", 100*share)
		}
	})

	// One gate straight into a register: a deposit ending exactly at
	// ClockPeriod+Hold still covers the window and must be kept, one
	// ending 1 ps earlier must be rejected.
	t.Run("boundary", func(t *testing.T) {
		nl := netlist.New(8)
		a := nl.AddInput("a")
		g := nl.AddGate(netlist.Buf, a)
		r := nl.AddDFF(g, "r", false)
		sim, err := timingsim.New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		values := func(netlist.NodeID) bool { return false }
		start := dm.ClockPeriod - dm.Setup - 30
		edge := timingsim.Strike{Gates: []netlist.NodeID{g}, Time: start, Width: dm.ClockPeriod + dm.Hold - start}
		if !sim.MayLatch(edge) {
			t.Fatal("deposit ending at ClockPeriod+Hold rejected")
		}
		if res := sim.Inject(values, edge); len(res.FlippedRegs) != 1 || res.FlippedRegs[0] != r {
			t.Fatalf("deposit ending at ClockPeriod+Hold flipped %v, want [%d]", res.FlippedRegs, r)
		}
		short := edge
		short.Width--
		if sim.MayLatch(short) {
			t.Fatal("deposit ending 1 ps before ClockPeriod+Hold kept")
		}
		if res := sim.Inject(values, short); len(res.FlippedRegs) != 0 {
			t.Fatalf("deposit ending 1 ps before ClockPeriod+Hold flipped %v", res.FlippedRegs)
		}
	})
}

// simPair returns a sparse simulator and a dense reference-sweep one.
func simPair(t *testing.T, nl *netlist.Netlist, dm timingsim.DelayModel) (sparse, dense *timingsim.Simulator) {
	t.Helper()
	sparse, err := timingsim.New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	dense, err = timingsim.New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	dense.SetReferenceSweep(true)
	return sparse, dense
}
