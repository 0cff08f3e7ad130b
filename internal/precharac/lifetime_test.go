package precharac

import (
	"math"
	"slices"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/soc"
)

// replayInjection is the single-injection replay the lane-packed
// campaign must reproduce lane for lane: it flips one register at the
// probe state, replays the golden input waveforms in lane 0, and
// returns the error's lifetime (cycles until the cone registers
// reconverge with the golden run, capped) and its contamination count
// (distinct other cone registers touched). state is scratch for the
// replay's register state, one word per register.
func replayInjection(replay *logicsim.Simulator, state []uint64, r netlist.NodeID, start []uint64, goldenIn, golden [][]uint64, inputs []netlist.NodeID, inConeIdx []bool, allRegs []netlist.NodeID, horizon int) (life, contam int) {
	replay.SetRegState(start)
	replay.FlipReg(r)
	life = horizon
	contamIdx := map[int]bool{}
	for k := 0; k < horizon; k++ {
		for i, id := range inputs {
			replay.SetInput(id, goldenIn[k][i])
		}
		replay.Step()
		replay.RegStateInto(state)
		diff := false
		for i := range state {
			if !inConeIdx[i] {
				continue
			}
			if (state[i]^golden[k+1][i])&1 != 0 {
				diff = true
				if allRegs[i] != r {
					contamIdx[i] = true
				}
			}
		}
		if !diff {
			life = k + 1
			break
		}
	}
	return life, len(contamIdx)
}

// coneRegsOf returns the registers of the characterization's cones in
// ascending id order, the campaign's injection order.
func coneRegsOf(c *Characterization, nl *netlist.Netlist) []netlist.NodeID {
	var regs []netlist.NodeID
	seen := map[netlist.NodeID]bool{}
	for _, layer := range c.Cone.ByDepth {
		for _, id := range layer {
			if nl.Node(id).Type == netlist.DFF && !seen[id] {
				seen[id] = true
				regs = append(regs, id)
			}
		}
	}
	slices.Sort(regs)
	return regs
}

// recordWindow records a window of the replay's horizon by stepping the
// SoC from its current state, the way the benchmark run records a
// probe's window.
func recordWindow(rp *laneReplay, s *soc.SoC) *window {
	w := rp.newWindow(s.Cycle())
	for k := 0; k < rp.horizon; k++ {
		s.StepInject(func(func(netlist.NodeID) bool) []netlist.NodeID {
			rp.recordCycle(w, k, s.Sim)
			return nil
		})
		rp.recordLatched(w, k, s.Sim)
	}
	return w
}

// scalarLifetimes runs the lifetime campaign one injection per replay,
// with its own golden capture, and returns the per-register results the
// lane-packed campaign must reproduce. scalar counts the cycles its
// replays stepped, and packed the cycles the lane-packed replays of the
// same injections step: per probe and batch of 64, the longest lifetime.
func scalarLifetimes(t *testing.T, s *soc.SoC, c *Characterization, opts Options) (regs map[netlist.NodeID]*RegChar, scalar, packed int) {
	t.Helper()
	nl := s.MPU.Netlist
	coneRegs := coneRegsOf(c, nl)
	allRegs, inputs := nl.Regs(), nl.Inputs()
	inCone := map[netlist.NodeID]bool{}
	for _, r := range coneRegs {
		inCone[r] = true
	}
	inConeIdx := make([]bool, len(allRegs))
	for i, r := range allRegs {
		inConeIdx[i] = inCone[r]
	}
	replay, err := logicsim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	state := make([]uint64, len(allRegs))
	warmup := 64
	stride := max((opts.TraceCycles-warmup)/opts.Probes, 1)
	lifeSum := make([]float64, len(coneRegs))
	contamSum := make([]float64, len(coneRegs))
	for p := 0; p < opts.Probes; p++ {
		s.Reset()
		for s.Cycle() < warmup+p*stride {
			s.Step()
		}
		start := s.Sim.RegState()
		goldenIn := make([][]uint64, opts.LifetimeCap)
		golden := make([][]uint64, opts.LifetimeCap+1)
		golden[0] = start
		for k := 0; k < opts.LifetimeCap; k++ {
			s.StepInject(func(func(netlist.NodeID) bool) []netlist.NodeID {
				in := make([]uint64, len(inputs))
				for i, id := range inputs {
					in[i] = s.Sim.Val(id) & 1
				}
				goldenIn[k] = in
				return nil
			})
			golden[k+1] = s.Sim.RegState()
		}
		longest := 0
		for i, r := range coneRegs {
			life, contam := replayInjection(replay, state, r, start, goldenIn, golden, inputs, inConeIdx, allRegs, opts.LifetimeCap)
			lifeSum[i] += float64(life)
			contamSum[i] += float64(contam)
			scalar += life
			longest = max(longest, life)
			if i%64 == 63 || i == len(coneRegs)-1 {
				packed += longest
				longest = 0
			}
		}
	}
	regs = map[netlist.NodeID]*RegChar{}
	for i, r := range coneRegs {
		rc := &RegChar{Reg: r, Lifetime: lifeSum[i] / float64(opts.Probes), Contamination: contamSum[i] / float64(opts.Probes)}
		rc.MemoryType = rc.Lifetime >= float64(opts.MemLifetimeMin) && rc.Contamination <= opts.MemContamMax
		regs[r] = rc
	}
	return regs, scalar, packed
}

// TestLanePackedLifetimesMatchScalar holds the lane-packed campaign to
// the single-injection replay: every characterized register's lifetime
// and contamination must carry the same bits, and its class must match,
// on the default MPU with its two probes (163 cone registers in batches
// of 64, 64 and 35), the reduced test options, a one-cycle horizon,
// probes whose windows overlap and the dual-rail MPU. The scalar replay
// resets the SoC and steps it to each probe; the campaign records every
// window from its one benchmark run.
func TestLanePackedLifetimesMatchScalar(t *testing.T) {
	capOne := smallOpts()
	capOne.LifetimeCap = 1
	// Four probes 48 cycles apart share most of their 200-cycle
	// windows, and the last one ends past the trace.
	overlap := smallOpts()
	overlap.TraceCycles, overlap.Probes, overlap.LifetimeCap = 256, 4, 200
	dualRail := func(t *testing.T) *soc.SoC {
		cfg := soc.DefaultConfig()
		cfg.MPU.DualRail = true
		s, err := soc.New(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		soc  func(*testing.T) *soc.SoC
		opts Options
	}{
		{"default", synthSoC, DefaultOptions()},
		{"small", synthSoC, smallOpts()},
		{"cap-1", synthSoC, capOne},
		{"overlapping-probes", synthSoC, overlap},
		{"dual-rail", dualRail, DefaultOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Characterize(tc.soc(t), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, scalar, packed := scalarLifetimes(t, tc.soc(t), c, tc.opts)
			if len(c.Regs) != len(want) {
				t.Fatalf("characterized %d registers, scalar replay %d", len(c.Regs), len(want))
			}
			for r, w := range want {
				got, ok := c.Regs[r]
				if !ok {
					t.Fatalf("register %d not characterized", r)
				}
				if math.Float64bits(got.Lifetime) != math.Float64bits(w.Lifetime) ||
					math.Float64bits(got.Contamination) != math.Float64bits(w.Contamination) ||
					got.MemoryType != w.MemoryType {
					t.Errorf("register %d: lane-packed %+v, scalar %+v", r, *got, *w)
				}
			}
			t.Logf("%d registers, %d probes: replayed cycles %d one injection per replay, %d lane-packed",
				len(want), tc.opts.Probes, scalar, packed)
		})
	}
}

// reconvergenceDesign builds a netlist in which a flip can leave the
// cone registers and come back. Cone registers a, b, f, g and hold;
// registers x1 and x2 lie outside the cones:
//
//	a ← x2 ^ in, b ← x2, x1 ← a, x2 ← x1, f ← g, g ← f, hold ← hold.
//
// A flip of a leaves a at once (its lifetime is 1), passes through x1
// and x2, and reaches a and b again two cycles later, after its replay
// has ended. A flip of f alternates between g and f for the whole
// horizon, so it contaminates g and must not count f itself.
func reconvergenceDesign() (*netlist.Netlist, []netlist.NodeID) {
	nl := netlist.New(16)
	in := nl.AddInput("in")
	a := nl.AddDFF(in, "a", false)
	b := nl.AddDFF(in, "b", false)
	f := nl.AddDFF(in, "f", true)
	g := nl.AddDFF(in, "g", false)
	hold := nl.AddDFF(in, "hold", false)
	x1 := nl.AddDFF(a, "x1", false)
	x2 := nl.AddDFF(x1, "x2", false)
	nl.Node(a).Fanin[0] = nl.AddGate(netlist.Xor, x2, in)
	nl.Node(b).Fanin[0] = x2
	nl.Node(f).Fanin[0] = g
	nl.Node(g).Fanin[0] = f
	nl.Node(hold).Fanin[0] = hold
	return nl, []netlist.NodeID{a, b, f, g, hold}
}

// goldenRun steps sim through the input sequence (lane 0) and returns
// the scalar replay's golden trajectory together with a laneReplay and
// the window it records of the same trajectory.
func goldenRun(t *testing.T, sim *logicsim.Simulator, coneRegs []netlist.NodeID, in [][]uint64) (rp *laneReplay, w *window, start []uint64, goldenIn, golden [][]uint64) {
	t.Helper()
	rp = newLaneReplay(sim.Fork(), coneRegs, len(in))
	w = rp.newWindow(0)
	start = sim.RegState()
	goldenIn = in
	golden = [][]uint64{start}
	for k := range in {
		for i, id := range sim.Netlist().Inputs() {
			sim.SetInput(id, in[k][i])
		}
		sim.Eval()
		rp.recordCycle(w, k, sim)
		sim.Latch()
		rp.recordLatched(w, k, sim)
		golden = append(golden, sim.RegState())
	}
	return rp, w, start, goldenIn, golden
}

// TestLaneReplayReconvergenceOutsideCones checks the lane replay against
// the single-injection replay on reconvergenceDesign. A lane keeps
// simulating after its error has left the cone registers, so the error
// that comes back through x1 and x2 must neither revive it nor count as
// contamination.
func TestLaneReplayReconvergenceOutsideCones(t *testing.T) {
	nl, coneRegs := reconvergenceDesign()
	a, b, f, hold := coneRegs[0], coneRegs[1], coneRegs[2], coneRegs[4]
	sim, err := logicsim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 12
	in := make([][]uint64, horizon)
	for k := range in {
		in[k] = []uint64{uint64(k>>1) & 1}
	}
	rp, w, start, goldenIn, golden := goldenRun(t, sim, coneRegs, in)

	// The design must do what the test relies on: a flip of a has left
	// the cone registers after one cycle and is back in b two cycles
	// later.
	free := sim.Fork()
	free.SetRegState(start)
	free.FlipReg(a)
	for k := 0; k < 3; k++ {
		for i, id := range nl.Inputs() {
			free.SetInput(id, in[k][i])
		}
		free.Step()
		back := (free.Val(b) ^ golden[k+1][1]) & 1
		if k == 0 && back != 0 || k == 2 && back == 0 {
			t.Fatalf("cycle %d: b differs %d; the design does not reconverge and rediverge", k+1, back)
		}
	}

	allRegs := nl.Regs()
	inConeIdx := make([]bool, len(allRegs))
	for i, r := range allRegs {
		for _, c := range coneRegs {
			inConeIdx[i] = inConeIdx[i] || r == c
		}
	}
	var life, contam [64]int
	if n := rp.run(w, 0, &life, &contam); n != len(coneRegs) {
		t.Fatalf("replayed %d lanes, want %d", n, len(coneRegs))
	}
	state := make([]uint64, len(allRegs))
	oracle := sim.Fork()
	want := map[netlist.NodeID][2]int{a: {1, 0}, f: {horizon, 1}, hold: {horizon, 0}}
	for l, r := range coneRegs {
		wl, wc := replayInjection(oracle, state, r, start, goldenIn, golden, nl.Inputs(), inConeIdx, allRegs, horizon)
		if life[l] != wl || contam[l] != wc {
			t.Errorf("%s: lane replay life %d contamination %d, scalar %d and %d", nl.Node(r).Name, life[l], contam[l], wl, wc)
		}
		if w, ok := want[r]; ok && (wl != w[0] || wc != w[1]) {
			t.Errorf("%s: scalar life %d contamination %d, want %d and %d", nl.Node(r).Name, wl, wc, w[0], w[1])
		}
	}
}

// TestLaneReplayAllocatesNothingPerCycle pins that a lane replay reads
// its golden trajectory from the buffers filled once per probe and
// allocates nothing while it steps. Per-cycle register-state copies
// once made the lifetime campaign the bulk of set-up's garbage (about
// 120 MB of the 140 MB core.Build allocated on the default MPU), so the
// process's peak RSS swung with whichever burst a collection caught.
func TestLaneReplayAllocatesNothingPerCycle(t *testing.T) {
	c, s := getChar(t)
	opts := smallOpts()
	coneRegs := coneRegsOf(c, s.MPU.Netlist)
	sim, err := logicsim.New(s.MPU.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	rp := newLaneReplay(sim, coneRegs, opts.LifetimeCap)
	s.Reset()
	for s.Cycle() < 64 {
		s.Step()
	}
	w := recordWindow(rp, s)
	// A batch with a flip that stays live for the whole horizon steps
	// every cycle, so any allocation in it is a per-cycle one.
	var life, contam [64]int
	first := -1
	for f := 0; f < len(coneRegs) && first < 0; f += 64 {
		n := rp.run(w, f, &life, &contam)
		for _, l := range life[:n] {
			if l == opts.LifetimeCap {
				first = f
			}
		}
	}
	if first < 0 {
		t.Fatal("no batch keeps a flip live for the horizon")
	}
	allocs := testing.AllocsPerRun(10, func() {
		rp.run(w, first, &life, &contam)
	})
	if allocs != 0 {
		t.Errorf("replaying %d cycles allocated %v times, want 0", opts.LifetimeCap, allocs)
	}
}

// TestRecordGoldenReadsLaneZero: the golden trajectory is the SoC's
// lane 0, broadcast to every lane, whatever the SoC's other lanes hold.
// The SoC keeps its lanes equal, so junk is written into lanes 1–63 of
// every register of one of two SoCs at the same probe; both must record
// the same window.
func TestRecordGoldenReadsLaneZero(t *testing.T) {
	c, _ := getChar(t)
	const horizon = 30
	record := func(junk bool) *window {
		s := synthSoC(t)
		for s.Cycle() < 100 {
			s.Step()
		}
		if junk {
			for i, r := range s.MPU.Netlist.Regs() {
				s.Sim.SetReg(r, s.Sim.Val(r)^(0x9e3779b97f4a7c15*uint64(i+1))&^1)
			}
		}
		sim, err := logicsim.New(s.MPU.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		return recordWindow(newLaneReplay(sim, coneRegsOf(c, s.MPU.Netlist), horizon), s)
	}
	want, got := record(false), record(true)
	for _, buf := range []struct {
		name      string
		got, want []uint64
	}{
		{"start", got.start, want.start},
		{"inputs", got.goldenIn, want.goldenIn},
		{"cone registers", got.golden, want.golden},
	} {
		for i := range buf.want {
			if buf.got[i] != buf.want[i] {
				t.Fatalf("%s word %d: %#x with junk in lanes 1-63, %#x without", buf.name, i, buf.got[i], buf.want[i])
			}
		}
	}
}
