package timingsim_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// latchTally counts, over non-empty strikes, how many the latch bound
// rejected, how many latched a register (a clock-gated one with its
// enable low among them), and on how many swept strikes the pruned
// sweep carried a wave on fewer gates than the full one.
type latchTally struct {
	strikes, rejected, latched, latchedClosed, pruned int
	// Gates carrying a wave in the full and in the pruned sweep,
	// summed over the strikes the bound kept.
	fullGates, prunedGates int
}

// latchCase is one strike in a cycle: the cycle's fault-free values as
// a callback and as the bitset InjectBits reads, and the latch table of
// its register-enable pattern.
type latchCase struct {
	nl     *netlist.Netlist
	values func(netlist.NodeID) bool
	bits   []uint64
	table  *timingsim.LatchTable
}

// checkSound requires that a strike the latch bound rejects latches
// nothing in either full sweep, and that the pruned sweep flips exactly
// the registers the full sparse and dense sweeps flip, with the dense
// sweep under the same pruning agreeing on every count. It tallies the
// outcome.
func checkSound(t *testing.T, label string, sparse, dense *timingsim.Simulator,
	lc latchCase, st timingsim.Strike, n *latchTally) {
	t.Helper()
	may := lc.table.MayLatch(st)
	full := sparse.InjectBits(lc.bits, st)
	rd := dense.Inject(lc.values, st)
	if !may && (len(full.FlippedRegs) != 0 || len(rd.FlippedRegs) != 0) {
		t.Fatalf("%s: bound false but sparse flipped %v, reference flipped %v (strike %+v)",
			label, full.FlippedRegs, rd.FlippedRegs, st)
	}
	pruned := sparse.InjectPruned(lc.bits, lc.table, st)
	if !slices.Equal(pruned.FlippedRegs, full.FlippedRegs) || !slices.Equal(rd.FlippedRegs, full.FlippedRegs) {
		t.Fatalf("%s: pruned sweep flipped %v, full sweep %v, reference %v (strike %+v)",
			label, pruned.FlippedRegs, full.FlippedRegs, rd.FlippedRegs, st)
	}
	if pd := dense.InjectPruned(lc.bits, lc.table, st); !sameResult(pd, pruned) {
		t.Fatalf("%s: pruned reference sweep %+v, pruned sparse sweep %+v (strike %+v)", label, pd, pruned, st)
	}
	if pruned.ActiveGates > full.ActiveGates || pruned.ReachedRegs > full.ReachedRegs {
		t.Fatalf("%s: pruned sweep %+v exceeds the full sweep %+v", label, pruned, full)
	}
	if len(st.Gates) == 0 {
		return
	}
	n.strikes++
	if !may {
		n.rejected++
	} else {
		n.fullGates += full.ActiveGates
		n.prunedGates += pruned.ActiveGates
		if pruned.ActiveGates < full.ActiveGates {
			n.pruned++
		}
	}
	if len(full.FlippedRegs) > 0 {
		n.latched++
	}
	for _, r := range full.FlippedRegs {
		if en := lc.nl.Node(r).En; en != netlist.Invalid && !lc.values(en) {
			n.latchedClosed++
			break
		}
	}
}

func sameResult(a, b timingsim.Result) bool {
	return a.ActiveGates == b.ActiveGates && a.ReachedRegs == b.ReachedRegs &&
		slices.Equal(a.FlippedRegs, b.FlippedRegs)
}

// TestMayLatchSound checks the per-cycle latch tables against the timed
// sweep: whenever a table's bound says no, neither the sparse nor the
// dense reference Inject may latch a register, and on every strike the
// pruned sweep must flip exactly what both full sweeps flip. It runs
// over random designs, whose clock-gated registers see random enables,
// and over the bundled MPU at every attack-window cycle with
// importance-sampler strikes. It requires the bound to reject more of
// the MPU's strikes than an enable-blind bound can, and the mask to
// prune a real share of the swept gates, so an always-true bound or a
// mask that prunes nothing fails, and pins the bound's edges at the
// plain and the widened window.
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
				if trial%2 == 1 {
					// Deposits wide enough to cover a gated register's
					// widened window.
					st.Width *= 6
					for i := range st.Widths {
						st.Widths[i] *= 6
					}
				}
				lc := newLatchCase(sparse, nl, values)
				checkSound(t, "random design", sparse, dense, lc, st, &n)
			}
		}
		t.Logf("random designs: %+v", n)
		if n.rejected == 0 || n.latched == 0 || n.latchedClosed == 0 || n.pruned == 0 {
			t.Fatalf("need rejected, latching, gated-latching and pruned strikes: %+v", n)
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
		nl := fw.MPU.Netlist
		sparse, dense := simPair(t, nl, fw.Opts.Delay)
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
		var cycles [][]uint64
		for c := lo; c <= g.TargetCycle; c++ {
			s.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
				cycles = append(cycles, timingsim.ValueBits(values, nl.NumNodes()))
				return nil
			})
		}
		tables := sparse.LatchTables(cycles)
		rng := rand.New(rand.NewSource(5))
		var n latchTally
		for i, vb := range cycles {
			lc := latchCase{nl: nl, values: bitValues(vb), bits: vb, table: tables[i]}
			for j := 0; j < 60; j++ {
				smp, _ := sampler.Draw(rng)
				checkSound(t, "mpu", sparse, dense, lc, ev.Attack.Strike(fw.Place, smp), &n)
			}
		}
		t.Logf("MPU cycles %d..%d, %d enable patterns: %+v", lo, g.TargetCycle, distinct(tables), n)
		if n.latched == 0 {
			t.Fatal("no MPU strike latched a register")
		}
		// A mask that prunes only the strikes passing the closed check
		// keeps about 99% of the gates.
		if 10*n.prunedGates > 9*n.fullGates {
			t.Fatalf("the pruned sweep kept waves on %d of the full sweep's %d gates, want at most 90%%",
				n.prunedGates, n.fullGates)
		}
		// The enable-blind bound this table replaced rejected about 53%
		// of importance draws.
		if share := float64(n.rejected) / float64(n.strikes); share < 0.58 {
			t.Fatalf("latch bound rejected %.1f%% of MPU strikes, want at least 58%%", 100*share)
		}
	})

	// One gate straight into a register: a deposit spanning exactly the
	// register's latching window must be kept and latch through the
	// pruned sweep too; one 1 ps shorter at either end must be
	// rejected. An ungated register and a gated one with its enable
	// high use the plain window; a gated one with its enable low, the
	// window widened by GatedWindowFactor.
	t.Run("boundary", func(t *testing.T) {
		gf := max(dm.GatedWindowFactor, 1)
		for _, tc := range []struct {
			name        string
			gated, high bool
			setup, hold float64
		}{
			{"ungated", false, false, dm.Setup, dm.Hold},
			{"enable high", true, true, dm.Setup, dm.Hold},
			{"enable low", true, false, dm.Setup * gf, dm.Hold * gf},
		} {
			nl := netlist.New(8)
			a := nl.AddInput("a")
			en := nl.AddInput("en")
			g := nl.AddGate(netlist.Buf, a)
			r := nl.AddDFF(g, "r", false)
			if tc.gated {
				nl.SetDFFEnable(r, en)
			}
			sim, err := timingsim.New(nl, dm)
			if err != nil {
				t.Fatal(err)
			}
			values := func(id netlist.NodeID) bool { return id == en && tc.high }
			lc := newLatchCase(sim, nl, values)
			start := dm.ClockPeriod - tc.setup
			edge := timingsim.Strike{Gates: []netlist.NodeID{g}, Time: start, Width: dm.ClockPeriod + tc.hold - start}
			if !lc.table.MayLatch(edge) {
				t.Fatalf("%s: deposit spanning the window rejected", tc.name)
			}
			for _, res := range []timingsim.Result{sim.Inject(values, edge), sim.InjectPruned(lc.bits, lc.table, edge)} {
				if len(res.FlippedRegs) != 1 || res.FlippedRegs[0] != r {
					t.Fatalf("%s: deposit spanning the window flipped %v, want [%d]", tc.name, res.FlippedRegs, r)
				}
			}
			late := edge
			late.Time++
			late.Width--
			short := edge
			short.Width--
			for _, st := range []timingsim.Strike{late, short} {
				if lc.table.MayLatch(st) {
					t.Fatalf("%s: deposit [%v, %v) 1 ps short of the window kept", tc.name, st.Time, st.Time+st.Width)
				}
				if res := sim.Inject(values, st); len(res.FlippedRegs) != 0 {
					t.Fatalf("%s: deposit [%v, %v) 1 ps short of the window flipped %v",
						tc.name, st.Time, st.Time+st.Width, res.FlippedRegs)
				}
			}
		}
	})
}

// newLatchCase builds the latch case of one cycle's values.
func newLatchCase(sim *timingsim.Simulator, nl *netlist.Netlist, values func(netlist.NodeID) bool) latchCase {
	vb := timingsim.ValueBits(values, nl.NumNodes())
	return latchCase{nl: nl, values: values, bits: vb, table: sim.LatchTables([][]uint64{vb})[0]}
}

// bitValues reads a value bitset as an Inject callback.
func bitValues(vb []uint64) func(netlist.NodeID) bool {
	return func(id netlist.NodeID) bool { return vb[id>>6]>>(uint(id)&63)&1 == 1 }
}

// distinct counts the distinct tables in a per-cycle list.
func distinct(tables []*timingsim.LatchTable) int {
	seen := map[*timingsim.LatchTable]bool{}
	for _, lt := range tables {
		seen[lt] = true
	}
	return len(seen)
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
