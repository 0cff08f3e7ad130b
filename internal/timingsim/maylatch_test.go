package timingsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sampling"
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
// a callback and as the bitset InjectBits reads, and the cycle's table.
type latchCase struct {
	nl     *netlist.Netlist
	values func(netlist.NodeID) bool
	bits   []uint64
	table  *timingsim.CycleTable
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
	pruned := sparse.InjectPruned(lc.table, st)
	if !slices.Equal(pruned.FlippedRegs, full.FlippedRegs) || !slices.Equal(rd.FlippedRegs, full.FlippedRegs) {
		t.Fatalf("%s: pruned sweep flipped %v, full sweep %v, reference %v (strike %+v)",
			label, pruned.FlippedRegs, full.FlippedRegs, rd.FlippedRegs, st)
	}
	if pd := dense.InjectPruned(lc.table, st); !sameResult(pd, pruned) {
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

// TestMayLatchSound checks the per-cycle tables' latch bound against the
// timed sweep: whenever a table's bound says no, neither the sparse nor
// the dense reference Inject may latch a register, and on every strike
// the pruned sweep must flip exactly what both full sweeps flip. It runs
// over random designs, whose clock-gated registers see random enables,
// with random values (not a consistent evaluation, so cells with bit {}
// of their flip table set keep every edge) and with settled ones (so
// the bound skips dead edges), and over the bundled MPU at every
// attack-window cycle with importance-sampler strikes. It requires the
// bound to reject more of the MPU's strikes than an enable-blind or an
// every-edge bound can, and the mask to prune a real share of the swept
// gates, so an always-true bound or a mask that prunes nothing fails,
// and pins the bound's edges at the plain and the widened window and at
// a logically masked path.
func TestMayLatchSound(t *testing.T) {
	dm := timingsim.DefaultDelayModel()
	random := func(t *testing.T, seed int64, settled bool) {
		rng := rand.New(rand.NewSource(seed))
		var n latchTally
		var dead, keepAll int
		for design := 0; design < 4; design++ {
			nl := timingsim.BuildRandomDesign(rng)
			sparse, dense := simPair(t, nl, dm)
			for trial := 0; trial < 2000; trial++ {
				values := timingsim.RandomValues(rng, nl.NumNodes())
				if settled {
					vals := make([]bool, nl.NumNodes())
					for i := range vals {
						vals[i] = values(netlist.NodeID(i))
					}
					timingsim.Settle(nl, vals)
					values = func(id netlist.NodeID) bool { return vals[id] }
				}
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
				d, k := lc.table.EdgeCounts(sparse)
				dead += d
				keepAll += k
			}
		}
		t.Logf("random designs: %+v; %d dead edges, %d cells keeping every edge", n, dead, keepAll)
		if n.rejected == 0 || n.latched == 0 || n.latchedClosed == 0 || n.pruned == 0 {
			t.Fatalf("need rejected, latching, gated-latching and pruned strikes: %+v", n)
		}
		if settled && (dead == 0 || keepAll != 0) {
			t.Fatalf("settled values: %d dead edges, %d cells with bit {} set; want some and none", dead, keepAll)
		}
		if !settled && keepAll == 0 {
			t.Fatal("random values never set bit {} of a flip table")
		}
	}
	t.Run("random", func(t *testing.T) { random(t, 11, false) })
	t.Run("settled", func(t *testing.T) { random(t, 12, true) })
	t.Run("mpu", func(t *testing.T) {
		fw, ev, sampler, cycles := mpuWindow(t)
		nl := fw.MPU.Netlist
		sparse, dense := simPair(t, nl, fw.Opts.Delay)
		g := ev.Golden
		lo := max(g.TargetCycle-ev.Attack.TRange, 0)
		tables := sparse.CycleTables(cycles)
		rng := rand.New(rand.NewSource(5))
		var n latchTally
		for i, vb := range cycles {
			lc := latchCase{nl: nl, values: bitValues(vb), bits: vb, table: tables[i]}
			for j := 0; j < 60; j++ {
				smp, _ := sampler.Draw(rng)
				checkSound(t, "mpu", sparse, dense, lc, ev.Attack.Strike(fw.Place, smp), &n)
			}
		}
		dead := 0
		for _, ct := range tables {
			d, _ := ct.EdgeCounts(sparse)
			dead += d
		}
		t.Logf("MPU cycles %d..%d, %d dead fanin edges: %+v", lo, g.TargetCycle, dead, n)
		if n.latched == 0 {
			t.Fatal("no MPU strike latched a register")
		}
		// A mask that prunes only the strikes passing the closed check
		// keeps about 99% of the gates.
		if 10*n.prunedGates > 9*n.fullGates {
			t.Fatalf("the pruned sweep kept waves on %d of the full sweep's %d gates, want at most 90%%",
				n.prunedGates, n.fullGates)
		}
		// The enable-blind bound that the per-cycle tables replaced
		// rejected about 53% of importance draws.
		share := float64(n.rejected) / float64(n.strikes)
		if share < 0.58 {
			t.Fatalf("latch bound rejected %.1f%% of MPU strikes, want at least 58%%", 100*share)
		}
		// The enable-aware bound over every edge rejected 63.2% of these
		// strikes; over live edges only, 92.6%.
		if share < 0.90 {
			t.Fatalf("live-edge latch bound rejected %.1f%% of MPU strikes, want at least 90%%", 100*share)
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
			for _, res := range []timingsim.Result{sim.Inject(values, edge), sim.InjectPruned(lc.table, edge)} {
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

	// A buffer whose only path to a register passes an AND. Its edge is
	// dead when the AND's other input is a gate at 0 and the buffer is
	// at 1 (only flipping that input flips the output), and when that
	// input is a primary input or a constant at 0 (flipping both would
	// flip the output, but neither ever carries a wave). Then a deposit
	// covering the window is rejected and no sweep latches it; with a
	// primary input at 1 the same deposit is kept and latches.
	t.Run("masked", func(t *testing.T) {
		for _, tc := range []struct {
			side string // what drives the AND's other input
			x, a bool
			live bool
		}{
			{"gate", true, false, false},
			{"input", false, false, false},
			{"constant", false, false, false},
			{"input", false, true, true},
		} {
			nl := netlist.New(8)
			x := nl.AddInput("x")
			a := nl.AddInput("a")
			g := nl.AddGate(netlist.Buf, x)
			side := a
			switch tc.side {
			case "gate":
				side = nl.AddGate(netlist.Buf, a)
			case "constant":
				side = nl.AddConst(false)
			}
			r := nl.AddDFF(nl.AddGate(netlist.And, g, side), "r", false)
			sim, err := timingsim.New(nl, dm)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]bool, nl.NumNodes())
			vals[x], vals[a] = tc.x, tc.a
			timingsim.Settle(nl, vals)
			values := func(id netlist.NodeID) bool { return vals[id] }
			lc := newLatchCase(sim, nl, values)
			// The wave at the AND's output spans [winStart−10, winEnd+10).
			st := timingsim.Strike{Gates: []netlist.NodeID{g},
				Time:  dm.ClockPeriod - dm.Setup - dm.CellDelay[netlist.And] - 10,
				Width: dm.Setup + dm.Hold + dm.Attenuation + 20}
			label := fmt.Sprintf("%s side input at %v", tc.side, vals[side])
			if got := lc.table.MayLatch(st); got != tc.live {
				t.Fatalf("%s: bound %v, want %v", label, got, tc.live)
			}
			var want []netlist.NodeID
			if tc.live {
				want = []netlist.NodeID{r}
			}
			for _, res := range []timingsim.Result{sim.Inject(values, st), sim.InjectPruned(lc.table, st)} {
				if !slices.Equal(res.FlippedRegs, want) {
					t.Fatalf("%s: flipped %v, want %v", label, res.FlippedRegs, want)
				}
			}
		}
	})
}

// mpuWindow builds the bundled MPU with a shortened
// pre-characterization, as in the montecarlo tests, and returns it with
// its evaluation, the importance sampler and the fault-free value
// bitset of every cycle of the golden attack window.
func mpuWindow(t *testing.T) (*core.Framework, *core.Evaluation, sampling.Sampler, [][]uint64) {
	t.Helper()
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
	return fw, ev, sampler, cycles
}

// newLatchCase builds the latch case of one cycle's values.
func newLatchCase(sim *timingsim.Simulator, nl *netlist.Netlist, values func(netlist.NodeID) bool) latchCase {
	vb := timingsim.ValueBits(values, nl.NumNodes())
	return latchCase{nl: nl, values: values, bits: vb, table: sim.CycleTables([][]uint64{vb})[0]}
}

// bitValues reads a value bitset as an Inject callback.
func bitValues(vb []uint64) func(netlist.NodeID) bool {
	return func(id netlist.NodeID) bool { return vb[id>>6]>>(uint(id)&63)&1 == 1 }
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

// spotTally counts the spot draws a record rejected, the ones whose
// strike latched a register, and the records whose front bit (the
// instant-free check) was clear.
type spotTally struct {
	draws, rejected, latched, frontClear int
}

// checkSpotSound requires that a draw the spot record rejects fails the
// per-strike bound and latches nothing in either full sweep, and that a
// record whose instant-free check fails rejects the draw whenever its
// instant lies in [0, tmax] and its width is at most wmax. width is the
// draw's width, at least every deposit of the strike.
func checkSpotSound(t *testing.T, label string, sparse, dense *timingsim.Simulator, lc latchCase,
	sb *timingsim.SpotBound, st timingsim.Strike, width, tmax, wmax float64, n *spotTally) {
	t.Helper()
	n.draws++
	keep := lc.table.SpotMayLatch(sb, st.Time, width)
	within := lc.table.SpotMayLatchWithin(sb, tmax, wmax)
	if !within {
		n.frontClear++
		if keep && 0 <= st.Time && st.Time <= tmax && width <= wmax {
			t.Fatalf("%s: record %+v kept instant %v, width %v, but no instant in [0, %v] with width <= %v passes it",
				label, *sb, st.Time, width, tmax, wmax)
		}
	}
	full := sparse.InjectBits(lc.bits, st)
	if len(full.FlippedRegs) > 0 {
		n.latched++
	}
	if keep {
		return
	}
	n.rejected++
	if lc.table.MayLatch(st) {
		t.Fatalf("%s: record %+v rejected width %v, but the per-strike bound keeps strike %+v", label, *sb, width, st)
	}
	if rd := dense.InjectBits(lc.bits, st); len(full.FlippedRegs) != 0 || len(rd.FlippedRegs) != 0 {
		t.Fatalf("%s: record %+v rejected width %v, but the kernel flipped %v and the reference %v (strike %+v)",
			label, *sb, width, full.FlippedRegs, rd.FlippedRegs, st)
	}
}

// TestSpotBoundSound checks the per-spot records against the per-strike
// bound and both full sweeps: a record built from a set of gates must
// reject only strikes on a subset of them that MayLatch rejects and
// that latch nothing, at any instant, with any deposits no wider than
// the width the record is checked with. On random designs (random and
// settled values, a delay model whose path sums float32 cannot hold)
// the set is random; on the bundled MPU it is the spot of the technique's
// widest radius around an importance-sampled center, struck at any
// radius up to it, any width and any instant, in every attack-window
// cycle. A boundary case pins that a draw whose end plus slack lands
// exactly on the window's end is kept.
func TestSpotBoundSound(t *testing.T) {
	random := func(t *testing.T, seed int64, settled bool) {
		rng := rand.New(rand.NewSource(seed))
		var n spotTally
		for design := 0; design < 4; design++ {
			dm := timingsim.DefaultDelayModel()
			if design%2 == 1 {
				dm = timingsim.FractionalDelay()
			}
			nl := timingsim.BuildRandomDesign(rng)
			sparse, dense := simPair(t, nl, dm)
			for trial := 0; trial < 300; trial++ {
				values := timingsim.RandomValues(rng, nl.NumNodes())
				if settled {
					vals := make([]bool, nl.NumNodes())
					for i := range vals {
						vals[i] = values(netlist.NodeID(i))
					}
					timingsim.Settle(nl, vals)
					values = func(id netlist.NodeID) bool { return vals[id] }
				}
				lc := newLatchCase(sparse, nl, values)
				set := make([]netlist.NodeID, 1+rng.Intn(8))
				for i := range set {
					set[i] = netlist.NodeID(rng.Intn(nl.NumNodes()))
				}
				sb := lc.table.SpotBound(set)
				wmax := rng.Float64() * dm.MinPulse * 60
				for range 8 {
					width := rng.Float64() * wmax * 1.2
					st := timingsim.Strike{Time: (rng.Float64()*1.6 - 0.3) * dm.ClockPeriod, Width: width}
					for _, g := range set {
						if rng.Intn(2) == 0 {
							st.Gates = append(st.Gates, g)
							st.Widths = append(st.Widths, width*(1-0.45*rng.Float64()))
						}
					}
					checkSpotSound(t, "random design", sparse, dense, lc, &sb, st, width, dm.ClockPeriod, wmax, &n)
				}
			}
		}
		t.Logf("random designs: %+v", n)
		if n.rejected == 0 || n.latched == 0 || n.frontClear == 0 {
			t.Fatalf("need rejected draws, latching draws and clear front bits: %+v", n)
		}
	}
	t.Run("random", func(t *testing.T) { random(t, 21, false) })
	t.Run("settled", func(t *testing.T) { random(t, 22, true) })
	t.Run("mpu", func(t *testing.T) {
		fw, ev, sampler, cycles := mpuWindow(t)
		nl := fw.MPU.Netlist
		sparse, dense := simPair(t, nl, fw.Opts.Delay)
		tech := ev.Attack.Technique
		rmax, wmax := tech.Radius+tech.RadiusJitter, tech.PulseWidth+tech.PulseJitter
		tables := sparse.CycleTables(cycles)
		rng := rand.New(rand.NewSource(6))
		var n spotTally
		for i, vb := range cycles {
			lc := latchCase{nl: nl, values: bitValues(vb), bits: vb, table: tables[i]}
			for j := 0; j < 60; j++ {
				smp, _ := sampler.Draw(rng)
				switch j % 3 {
				case 1: // any radius up to rmax, any width, any instant
					smp.Radius = rng.Float64() * rmax
					smp.Width = rng.Float64() * 2 * wmax
					smp.Time = (rng.Float64()*1.6 - 0.3) * tech.ClockPeriod
				case 2: // the widest spot and pulse
					smp.Radius, smp.Width = rmax, wmax
				}
				sb := lc.table.SpotBound(fw.Place.CombWithinRadius(smp.Center, rmax))
				checkSpotSound(t, "mpu", sparse, dense, lc, &sb, ev.Attack.Strike(fw.Place, smp), smp.Width, tech.ClockPeriod, wmax, &n)
			}
		}
		t.Logf("MPU: %+v", n)
		if n.rejected == 0 || n.latched == 0 || n.frontClear == 0 {
			t.Fatalf("need rejected draws, latching draws and clear front bits: %+v", n)
		}
	})

	// A buffer g driving a second buffer that drives a register: g's
	// slack is delay − Attenuation and its arrival delay. A draw whose
	// (Time + Width) + Slack is exactly the window's end, with Time +
	// Arrival exactly at its start, passes, and its strike latches; one
	// ending 1e-3 ps earlier fails, and so does its strike.
	t.Run("boundary", func(t *testing.T) {
		dm := timingsim.DefaultDelayModel()
		nl := netlist.New(8)
		a := nl.AddInput("a")
		g := nl.AddGate(netlist.Buf, a)
		r := nl.AddDFF(nl.AddGate(netlist.Buf, g), "r", false)
		sim, err := timingsim.New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		values := func(netlist.NodeID) bool { return false }
		lc := newLatchCase(sim, nl, values)
		sb := lc.table.SpotBound([]netlist.NodeID{g})
		d := dm.CellDelay[netlist.Buf]
		if sb.Slack[0] != float32(d-dm.Attenuation) || sb.Arrival[0] != float32(d) {
			t.Fatalf("record %+v, want slack %v and arrival %v", sb, d-dm.Attenuation, d)
		}
		// The sweep's wave at r's driver spans [Time + d, Time + Width +
		// d − Attenuation), so the strike latches exactly when the
		// record's sums cover [ClockPeriod − Setup, ClockPeriod + Hold].
		slack, arrival := float64(sb.Slack[0]), float64(sb.Arrival[0])
		time := dm.ClockPeriod - dm.Setup - arrival
		end := dm.ClockPeriod + dm.Hold
		width := end - slack - time
		if (time+width)+slack != end || time+arrival != dm.ClockPeriod-dm.Setup {
			t.Fatalf("instant %v, width %v do not land exactly on the window", time, width)
		}
		st := timingsim.Strike{Gates: []netlist.NodeID{g}, Time: time, Width: width}
		if !lc.table.SpotMayLatch(&sb, time, width) {
			t.Fatal("record rejected a draw ending exactly at the window's end")
		}
		if res := sim.InjectBits(lc.bits, st); !slices.Equal(res.FlippedRegs, []netlist.NodeID{r}) {
			t.Fatalf("a strike ending exactly at the window's end flipped %v, want [%d]", res.FlippedRegs, r)
		}
		// The widened limits take 1e-6 ps: a draw 1e-3 ps short is out.
		short := width - 1e-3
		if lc.table.SpotMayLatch(&sb, time, short) {
			t.Fatalf("record kept a draw ending %v ps before the window's end", width-short)
		}
		st.Width = short
		if res := sim.InjectBits(lc.bits, st); len(res.FlippedRegs) != 0 {
			t.Fatalf("a strike ending before the window's end flipped %v", res.FlippedRegs)
		}
	})
}
