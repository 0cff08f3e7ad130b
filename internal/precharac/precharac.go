// Package precharac implements the paper's three-step system
// pre-characterization (Section 4):
//
//  1. identify the responding signals and extract the fanin/fanout cones
//     in the unrolled netlist (Observation 1);
//  2. record switching signatures with RTL + bit-parallel gate-level
//     simulation of a synthetic benchmark, and compute each node's
//     bit-flip correlation with the responding signals (Observation 2);
//  3. inject bit errors into every register in the cones and measure
//     error lifetime and error contamination number, classifying
//     registers into memory-type and computation-type (Observation 3).
//
// The results feed the importance-sampling distribution g_{T,P}
// (internal/sampling) and the analytical evaluator for memory-type
// registers (internal/analytical).
package precharac

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/logicsim"
	"repro/internal/modelcheck"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/soc"
)

// Options tunes the pre-characterization campaigns.
type Options struct {
	// MaxDepth is the number of unroll levels of the cone extraction;
	// it must cover the largest timing distance the attack model uses.
	MaxDepth int
	// TraceCycles is the length of the synthetic-benchmark trace the
	// switching signatures are extracted from.
	TraceCycles int
	// LifetimeCap is the horizon (cycles) of the lifetime campaign;
	// errors alive at the horizon report this value.
	LifetimeCap int
	// Probes is the number of injection points spread across the
	// synthetic benchmark for the lifetime campaign.
	Probes int
	// MemLifetimeMin and MemContamMax classify a register as
	// memory-type: lifetime at least the former, contamination at
	// most the latter.
	MemLifetimeMin int
	MemContamMax   float64
}

// DefaultOptions returns the settings used by the paper-scale
// experiments.
func DefaultOptions() Options {
	return Options{
		MaxDepth:       50,
		TraceCycles:    1024,
		LifetimeCap:    200,
		Probes:         2,
		MemLifetimeMin: 100,
		MemContamMax:   0.5,
	}
}

// RegChar is the per-register characterization outcome.
type RegChar struct {
	Reg netlist.NodeID
	// Lifetime is the average number of cycles an injected bit error
	// survives before being masked (capped at LifetimeCap).
	Lifetime float64
	// Contamination is the average number of other registers the
	// error spreads to within the horizon.
	Contamination float64
	// MemoryType marks long-lifetime, non-propagating registers.
	MemoryType bool
}

// Characterization is the full pre-characterization result.
type Characterization struct {
	Opts Options
	// Responding are the responding-signal register nodes.
	Responding []netlist.NodeID
	// Fanin and Fanout are the unrolled cones of the responding
	// signals; Cone is their union per depth.
	Fanin, Fanout, Cone *netlist.Cone
	// Regs characterizes every register in the cones.
	Regs map[netlist.NodeID]*RegChar

	corrFanin  [][]float64 // [depth][node]
	corrFanout [][]float64
	rsDensity  float64
	combLife   []float64 // [node] effective lifetime of comb gates
	numNodes   int
	// life and memType are the per-node facts the Monte Carlo engine
	// classifies every sample's flips by, dense so a lookup is one
	// array read: life[id] is Lifetime(id), memType[id] marks the
	// memory-type registers of Regs. Both are filled once, at the end
	// of Characterize.
	life    []float64
	memType []bool
}

// Characterize runs all three pre-characterization steps on a SoC that
// executes a synthetic benchmark. The SoC is Reset and driven by the
// campaign; it is left in an arbitrary state afterwards. After the one
// benchmark run, the lifetime campaign and the correlations share
// GOMAXPROCS workers; the result does not depend on how many.
func Characterize(s *soc.SoC, opts Options) (*Characterization, error) {
	if opts.MaxDepth < 1 || opts.TraceCycles < 2 || opts.LifetimeCap < 1 || opts.Probes < 1 {
		return nil, fmt.Errorf("precharac: invalid options %+v", opts)
	}
	nl := s.MPU.Netlist
	c := &Characterization{
		Opts:       opts,
		Responding: append([]netlist.NodeID(nil), s.MPU.RespondingSignals...),
		Regs:       make(map[netlist.NodeID]*RegChar),
		numNodes:   nl.NumNodes(),
	}
	if len(c.Responding) == 0 {
		return nil, fmt.Errorf("precharac: design has no responding signals")
	}
	report := modelcheck.CheckModelFrom(s.MPU.CheckNetlist(), modelcheck.Model{
		Netlist:    nl,
		Responding: c.Responding,
		MaxDepth:   opts.MaxDepth,
	})
	if err := report.Err(modelcheck.Error); err != nil {
		return nil, fmt.Errorf("precharac: design rejected by static verification: %w", err)
	}

	// Step 1: unrolled cones.
	c.Fanin = nl.UnrolledFaninCone(c.Responding, opts.MaxDepth)
	c.Fanout = nl.UnrolledFanoutCone(c.Responding, opts.MaxDepth)
	c.Cone = netlist.Merge(c.Fanin, c.Fanout)
	coneRegs := c.coneRegs(nl)
	if len(coneRegs) == 0 {
		return nil, fmt.Errorf("precharac: no registers in responding-signal cones")
	}

	// Steps 2 and 3 read one run of the synthetic benchmark.
	rp := newLaneReplay(s.Sim.Fork(), coneRegs, opts.LifetimeCap)
	trace, windows := runBenchmark(s, opts, rp)

	// Step 2's switching signatures are all taken before the work is
	// split. Task 0 is step 3, error lifetime and contamination; every
	// other task is one depth of one cone's bit-flip correlation, so the
	// worker that runs step 3 joins the correlations when it is done.
	// Each task writes only its own results.
	sigs := c.switchSignatures(nl, trace)
	nFanin := len(c.Fanin.ByDepth)
	c.corrFanin = make([][]float64, nFanin)
	c.corrFanout = make([][]float64, len(c.Fanout.ByDepth))
	par.Each(1+nFanin+len(c.corrFanout), func() func(int) {
		aligned := make([][]uint64, len(sigs.rs))
		for i, rs := range sigs.rs {
			aligned[i] = make([]uint64, len(rs))
		}
		return func(i int) {
			switch {
			case i == 0:
				c.lifetimeCampaign(rp, windows, opts)
				c.computeCombLifetimes(nl)
				c.fillNodeTables()
			case i <= nFanin:
				// Backward (fanin): flips at g at cycle k reach rs at
				// k+d, so rs's signature is shifted down by d.
				d := i - 1
				c.corrFanin[d] = sigs.correlate(c.Fanin.ByDepth[d], d, aligned)
			default:
				// Forward (fanout): flips at rs at cycle k reach g at
				// k+d, so it is shifted up by d.
				d := i - 1 - nFanin
				c.corrFanout[d] = sigs.correlate(c.Fanout.ByDepth[d], -d, aligned)
			}
		}
	})
	return c, nil
}

// coneRegs returns the registers of the cones in ascending id order.
func (c *Characterization) coneRegs(nl *netlist.Netlist) []netlist.NodeID {
	in := make([]bool, nl.NumNodes())
	for _, layer := range c.Cone.ByDepth {
		for _, id := range layer {
			if nl.Node(id).Type == netlist.DFF {
				in[id] = true
			}
		}
	}
	var regs []netlist.NodeID
	for id, ok := range in {
		if ok {
			regs = append(regs, netlist.NodeID(id))
		}
	}
	return regs
}

// fillNodeTables derives the dense per-node lifetime and memory-type
// tables from Regs and the comb-gate lifetimes.
func (c *Characterization) fillNodeTables() {
	c.life = append([]float64(nil), c.combLife...)
	c.memType = make([]bool, c.numNodes)
	for r, rc := range c.Regs {
		c.life[r] = rc.Lifetime
		c.memType[r] = rc.MemoryType
	}
}

// runBenchmark runs the synthetic benchmark once from reset, for
// max(TraceCycles, last probe + LifetimeCap) cycles, and records from
// that run both the trace the switching signatures are extracted from
// and, per lifetime probe, the golden window its replays read. The
// probes are spread across the benchmark past its privileged set-up.
func runBenchmark(s *soc.SoC, opts Options, rp *laneReplay) (*logicsim.Trace, []*window) {
	const warmup = 64
	stride := max((opts.TraceCycles-warmup)/opts.Probes, 1)
	windows := make([]*window, opts.Probes)
	for p := range windows {
		windows[p] = rp.newWindow(warmup + p*stride)
	}
	trace := logicsim.NewTrace(s.MPU.Netlist, opts.TraceCycles)
	cycles := max(opts.TraceCycles, windows[len(windows)-1].probe+rp.horizon)
	s.Reset()
	cyc := 0
	// record runs between the cycle's evaluation and its latch, and
	// returns no flips, so StepInject steps exactly as Step does.
	record := func(func(netlist.NodeID) bool) []netlist.NodeID {
		if cyc < opts.TraceCycles {
			trace.RecordSources(s.Sim, cyc)
		}
		for _, w := range windows {
			if k := cyc - w.probe; k >= 0 && k < rp.horizon {
				rp.recordCycle(w, k, s.Sim)
			}
		}
		return nil
	}
	for ; cyc < cycles; cyc++ {
		s.StepInject(record)
		for _, w := range windows {
			if k := cyc - w.probe; k >= 0 && k < rp.horizon {
				rp.recordLatched(w, k, s.Sim)
			}
		}
	}
	trace.FillCombParallel(s.Sim)
	return trace, windows
}

// signatures holds what every correlation depth reads: each responding
// signal's switching signature, and each cone node's signature and
// weight (the cycles it switches in).
type signatures struct {
	rs [][]uint64 // [responding signal]
	// node[g] and weight[g] are node g's signature and weight; node[g]
	// is nil off the cones.
	node   [][]uint64
	weight []int
}

// switchSignatures takes the switching signatures of the responding
// signals and of every cone node from the trace, and sets the chance
// baseline of the correlation (SwitchDensity).
func (c *Characterization) switchSignatures(nl *netlist.Netlist, trace *logicsim.Trace) *signatures {
	s := &signatures{
		rs:     make([][]uint64, len(c.Responding)),
		node:   make([][]uint64, nl.NumNodes()),
		weight: make([]int, nl.NumNodes()),
	}
	for i, rs := range c.Responding {
		s.rs[i] = trace.SwitchSignature(rs)
		if d := float64(popcount(s.rs[i])) / float64(trace.NumCycles()); d > c.rsDensity {
			c.rsDensity = d
		}
	}
	// A node persists across unrolled layers and sits in both cones;
	// its signature is taken once.
	for _, layer := range c.Cone.ByDepth {
		for _, g := range layer {
			if s.node[g] == nil {
				s.node[g] = trace.SwitchSignature(g)
				s.weight[g] = popcount(s.node[g])
			}
		}
	}
	return s
}

// correlate returns one cone depth's correlation table: entry g, for
// every node g of the layer, is Corr(g, rs) maximized over the
// responding signals, whose signatures are shifted so that bit k of the
// result pairs with bit k+shift of theirs. aligned, one signature per
// responding signal, is the caller's scratch.
func (s *signatures) correlate(layer []netlist.NodeID, shift int, aligned [][]uint64) []float64 {
	out := make([]float64, len(s.node))
	for i, rs := range s.rs {
		for w := range aligned[i] {
			aligned[i][w] = extractShifted(rs, w, shift)
		}
	}
	for _, g := range layer {
		weight := s.weight[g]
		if weight == 0 {
			continue
		}
		best := 0.0
		for _, rs := range aligned {
			if corr := float64(andPopcount(s.node[g], rs)) / float64(weight); corr > best {
				best = corr
			}
		}
		out[g] = best
	}
	return out
}

// lifetimeCampaign injects one bit flip per cone register at each
// probe of the synthetic benchmark and tracks how long the error stays
// visible in the responding-signal cones.
//
// The campaign is module-level: the benchmark run records the MPU's
// input waveforms from each probe on (a window), and each faulty run
// replays those inputs into a standalone netlist simulation. Lifetime
// and contamination are measured over the registers inside the
// responding-signal cones — registers outside the cones (e.g. a
// performance counter) can never influence the responding signals, so
// divergence there does not keep an error "alive" in the paper's sense.
//
// One replay carries up to 64 injections, one per simulator lane (see
// laneReplay), so a probe costs ceil(len(coneRegs)/64) replays instead
// of one per register.
func (c *Characterization) lifetimeCampaign(rp *laneReplay, windows []*window, opts Options) {
	coneRegs := rp.coneRegs
	// lifeSum/contamSum accumulate per register across probes, in probe
	// order.
	lifeSum := make([]float64, len(coneRegs))
	contamSum := make([]float64, len(coneRegs))
	var life, contam [64]int
	for _, w := range windows {
		for first := 0; first < len(coneRegs); first += 64 {
			n := rp.run(w, first, &life, &contam)
			for l := 0; l < n; l++ {
				lifeSum[first+l] += float64(life[l])
				contamSum[first+l] += float64(contam[l])
			}
		}
	}
	for i, r := range coneRegs {
		rc := &RegChar{Reg: r, Lifetime: lifeSum[i] / float64(opts.Probes), Contamination: contamSum[i] / float64(opts.Probes)}
		rc.MemoryType = rc.Lifetime >= float64(opts.MemLifetimeMin) && rc.Contamination <= opts.MemContamMax
		c.Regs[r] = rc
	}
}

// laneReplay replays bit-flip injections against a golden trajectory,
// up to 64 at once: lane l of a replay flips one cone register (the
// cone registers in ascending id order; lane l of batch b flips
// coneRegs[64b+l]), and the golden start state and inputs are
// broadcast from lane 0 to every lane, so each lane runs exactly the
// single-injection replay of its register. The golden trajectory is a
// window recorded once per probe and read by every replay; nothing is
// allocated per replayed cycle.
type laneReplay struct {
	sim      *logicsim.Simulator
	inputs   []netlist.NodeID
	coneRegs []netlist.NodeID
	horizon  int
	// contam[j] collects the lanes whose error reached cone register j
	// while still alive.
	contam []uint64
}

// window is one probe's golden trajectory over the replay horizon,
// from the probe cycle on. start is the register state at the probe
// (Netlist.Regs order); goldenIn[k*len(inputs)+i] is input i during
// cycle k, and golden[k*len(coneRegs)+j] is cone register j after
// cycle k. Every word holds its lane-0 value in all lanes.
type window struct {
	probe    int
	start    []uint64
	goldenIn []uint64
	golden   []uint64
}

func newLaneReplay(sim *logicsim.Simulator, coneRegs []netlist.NodeID, horizon int) *laneReplay {
	return &laneReplay{
		sim:      sim,
		inputs:   sim.Netlist().Inputs(),
		coneRegs: coneRegs,
		horizon:  horizon,
		contam:   make([]uint64, len(coneRegs)),
	}
}

// newWindow allocates an empty window of the replay's horizon from the
// probe cycle on.
func (rp *laneReplay) newWindow(probe int) *window {
	return &window{
		probe:    probe,
		start:    make([]uint64, len(rp.sim.Netlist().Regs())),
		goldenIn: make([]uint64, rp.horizon*len(rp.inputs)),
		golden:   make([]uint64, rp.horizon*len(rp.coneRegs)),
	}
}

// broadcast returns the word holding lane 0 of w in every lane.
func broadcast(w uint64) uint64 { return -(w & 1) }

// recordCycle records cycle k of the window from a simulator between
// the cycle's evaluation and its latch: the inputs, and at k = 0 the
// register state, which is still the state at the probe.
func (rp *laneReplay) recordCycle(w *window, k int, sim *logicsim.Simulator) {
	if k == 0 {
		sim.RegStateInto(w.start)
		for i, x := range w.start {
			w.start[i] = broadcast(x)
		}
	}
	in := w.goldenIn[k*len(rp.inputs) : (k+1)*len(rp.inputs)]
	for i, id := range rp.inputs {
		in[i] = broadcast(sim.Val(id))
	}
}

// recordLatched records the cone registers the simulator latched at the
// end of cycle k of the window.
func (rp *laneReplay) recordLatched(w *window, k int, sim *logicsim.Simulator) {
	g := w.golden[k*len(rp.coneRegs) : (k+1)*len(rp.coneRegs)]
	for j, r := range rp.coneRegs {
		g[j] = broadcast(sim.Val(r))
	}
}

// run replays the injections into coneRegs[first:first+n] against the
// window, n at most 64, and returns n. life[l] is lane l's error
// lifetime: the first cycle count after which every cone register
// matches the golden run, or the horizon if none does. contam[l] is the
// number of other cone registers its error reached before then.
func (rp *laneReplay) run(w *window, first int, life, contam *[64]int) int {
	n := min(len(rp.coneRegs)-first, 64)
	sim := rp.sim
	sim.SetRegState(w.start)
	for l, r := range rp.coneRegs[first : first+n] {
		sim.SetReg(r, sim.Val(r)^1<<uint(l))
	}
	alive := logicsim.AllLanes >> uint(64-n)
	for l := 0; l < n; l++ {
		life[l] = rp.horizon
		contam[l] = 0
	}
	clear(rp.contam)
	nIn, nCone := len(rp.inputs), len(rp.coneRegs)
	for k := 0; k < rp.horizon && alive != 0; k++ {
		in := w.goldenIn[k*nIn : (k+1)*nIn]
		for i, id := range rp.inputs {
			sim.SetInput(id, in[i])
		}
		sim.Step()
		g := w.golden[k*nCone : (k+1)*nCone]
		var diff uint64
		for j, r := range rp.coneRegs {
			d := sim.Val(r) ^ g[j]
			diff |= d
			rp.contam[j] |= d & alive
		}
		for dead := alive &^ diff; dead != 0; dead &= dead - 1 {
			life[bits.TrailingZeros64(dead)] = k + 1
		}
		alive &= diff
	}
	// A lane's own register is not contamination.
	for l := 0; l < n; l++ {
		rp.contam[first+l] &^= 1 << uint(l)
	}
	for _, m := range rp.contam {
		for ; m != 0; m &= m - 1 {
			contam[bits.TrailingZeros64(m)]++
		}
	}
	return n
}

// computeCombLifetimes assigns every combinational gate the maximum
// lifetime of the registers that directly latch its output (the
// registers in its forward cone across one register boundary), per the
// paper's definition of L(g) for combinational g.
func (c *Characterization) computeCombLifetimes(nl *netlist.Netlist) {
	c.combLife = make([]float64, nl.NumNodes())
	for r, rc := range c.Regs {
		// Clock-gated registers cannot capture D-path transients
		// while their enable is low (which, for config stores, is
		// essentially always outside reconfiguration) — they do not
		// extend any gate's effective attack lifetime.
		if nl.Node(r).En != netlist.Invalid {
			continue
		}
		// Depth 1 of the register's own fanin cone is exactly the
		// logic that feeds its D pin within one cycle — the gates
		// whose transients this register can latch.
		cone := nl.UnrolledFaninCone([]netlist.NodeID{r}, 1)
		for _, g := range cone.ByDepth[1] {
			t := nl.Node(g).Type
			if t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1 {
				if rc.Lifetime > c.combLife[g] {
					c.combLife[g] = rc.Lifetime
				}
			}
		}
	}
}

// SwitchDensity returns the switching activity of the busiest
// responding signal (toggles per cycle) — the chance-level baseline of
// the bit-flip correlation: an uncorrelated node that switches every
// cycle still scores roughly this value.
func (c *Characterization) SwitchDensity() float64 { return c.rsDensity }

// Corr returns the bit-flip correlation of a node at an unroll depth
// (maximum over responding signals and over the fanin/fanout sides).
func (c *Characterization) Corr(depth int, id netlist.NodeID) float64 {
	best := 0.0
	if depth >= 0 && depth < len(c.corrFanin) {
		if v := c.corrFanin[depth][id]; v > best {
			best = v
		}
	}
	if depth >= 0 && depth < len(c.corrFanout) {
		if v := c.corrFanout[depth][id]; v > best {
			best = v
		}
	}
	return best
}

// Lifetime returns L(g): a register's own characterized lifetime, or
// for a combinational gate the maximum lifetime of the registers
// latching it. Nodes outside the characterized cones report 0.
func (c *Characterization) Lifetime(id netlist.NodeID) float64 {
	if uint(id) < uint(len(c.life)) {
		return c.life[id]
	}
	return 0
}

// MemoryType reports whether a node is a characterized memory-type
// register (Regs[id].MemoryType); every other node reports false.
func (c *Characterization) MemoryType(id netlist.NodeID) bool {
	return uint(id) < uint(len(c.memType)) && c.memType[id]
}

// MemoryRegs returns the memory-type registers, and ComputationRegs the
// rest of the characterized population.
func (c *Characterization) MemoryRegs() []netlist.NodeID {
	return c.selectRegs(true)
}

// ComputationRegs returns the computation-type registers.
func (c *Characterization) ComputationRegs() []netlist.NodeID {
	return c.selectRegs(false)
}

func (c *Characterization) selectRegs(memory bool) []netlist.NodeID {
	var out []netlist.NodeID
	//maporder-ok (sorted by id below)
	for _, rc := range c.Regs {
		if rc.MemoryType == memory {
			out = append(out, rc.Reg)
		}
	}
	slices.Sort(out)
	return out
}

// CombLayer returns the combinational gates of the unrolled cones at
// the paper's unroll index i — the gates whose transient, injected at
// timing distance t = i, can reach the responding signals' latch at the
// target cycle. In cone-depth terms these sit at depth i+1: a gate
// feeding a responding register directly (paper's 0th unrolled circuit)
// is one register-boundary crossing away from it.
func (c *Characterization) CombLayer(nl *netlist.Netlist, i int) []netlist.NodeID {
	d := i + 1
	if d < 0 || d >= c.Cone.MaxDepth() {
		return nil
	}
	var out []netlist.NodeID
	for _, g := range c.Cone.ByDepth[d] {
		t := nl.Node(g).Type
		if t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1 {
			out = append(out, g)
		}
	}
	return out
}

// CorrComb returns the bit-flip correlation of a combinational gate at
// the paper's unroll index i (cone depth i+1).
func (c *Characterization) CorrComb(i int, id netlist.NodeID) float64 {
	return c.Corr(i+1, id)
}

// MaxUnrollIndex returns the largest paper-style unroll index i for
// which CombLayer is characterized.
func (c *Characterization) MaxUnrollIndex() int { return c.Cone.MaxDepth() - 2 }

// FaninRegsByDepth returns the registers of the fanin cone per unroll
// depth (Fig 8(b)'s middle series).
func (c *Characterization) FaninRegsByDepth(nl *netlist.Netlist) [][]netlist.NodeID {
	return c.Fanin.FilterRegs(nl)
}

// FaninCompRegsByDepth returns only the computation-type registers per
// depth (Fig 8(b)'s bottom series — the population the sampling method
// actually has to cover).
func (c *Characterization) FaninCompRegsByDepth(nl *netlist.Netlist) [][]netlist.NodeID {
	layers := c.Fanin.FilterRegs(nl)
	out := make([][]netlist.NodeID, len(layers))
	for d, layer := range layers {
		for _, r := range layer {
			if rc, ok := c.Regs[r]; ok && !rc.MemoryType {
				out[d] = append(out[d], r)
			}
		}
	}
	return out
}

// --- bitset helpers ------------------------------------------------------

func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// andPopcount counts the bits set in both a and b (len(b) ≥ len(a)).
// Even and odd words have their own accumulators, so the additions do
// not wait on each other.
func andPopcount(a, b []uint64) int {
	b = b[:len(a)] // lets the loop run without bounds checks
	n0, n1 := 0, 0
	w := 0
	for ; w+1 < len(a); w += 2 {
		n0 += bits.OnesCount64(a[w] & b[w])
		n1 += bits.OnesCount64(a[w+1] & b[w+1])
	}
	if w < len(a) {
		n0 += bits.OnesCount64(a[w] & b[w])
	}
	return n0 + n1
}

// extractShifted returns word w of the bitset b logically shifted so
// that bit c of the result equals bit c+shift of b (zero fill).
func extractShifted(b []uint64, w, shift int) uint64 {
	base := w*64 + shift
	var out uint64
	wordIdx := base >> 6
	bitOff := base & 63
	if base < 0 {
		wordIdx = (base - 63) / 64
		bitOff = base - wordIdx*64
	}
	if wordIdx >= 0 && wordIdx < len(b) {
		out = b[wordIdx] >> uint(bitOff)
	}
	if bitOff != 0 && wordIdx+1 >= 0 && wordIdx+1 < len(b) {
		out |= b[wordIdx+1] << uint(64-bitOff)
	}
	return out
}
