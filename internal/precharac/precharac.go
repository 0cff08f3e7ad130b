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
	"runtime"
	"sync"

	"repro/internal/logicsim"
	"repro/internal/modelcheck"
	"repro/internal/netlist"
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
	// BitParallel selects the 64-way signature extraction (the
	// scalar path exists for the ablation benchmark).
	BitParallel bool
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
	// SkipModelCheck disables the static verification pass run over
	// the netlist (and the responding-signal cone window) before the
	// campaigns start. The guard rejects only error-severity findings,
	// so skipping it never changes results on a valid design.
	SkipModelCheck bool
	// Workers bounds the goroutines of the lifetime campaign's
	// per-register replays (0 means runtime.NumCPU(), 1 forces the
	// serial path). Each injected register is an independent replay
	// against the shared golden trajectory, and per-register results
	// are merged in sorted register order, so the output is
	// byte-identical at every worker count.
	Workers int
}

// DefaultOptions returns the settings used by the paper-scale
// experiments.
func DefaultOptions() Options {
	return Options{
		MaxDepth:       50,
		TraceCycles:    1024,
		BitParallel:    true,
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
// campaign; it is left in an arbitrary state afterwards.
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
	if !opts.SkipModelCheck {
		report := modelcheck.CheckModel(modelcheck.Model{
			Netlist:    nl,
			Responding: c.Responding,
			MaxDepth:   opts.MaxDepth,
		})
		if err := report.Err(modelcheck.Error); err != nil {
			return nil, fmt.Errorf("precharac: design rejected by static verification: %w", err)
		}
	}

	// Step 1: unrolled cones.
	c.Fanin = nl.UnrolledFaninCone(c.Responding, opts.MaxDepth)
	c.Fanout = nl.UnrolledFanoutCone(c.Responding, opts.MaxDepth)
	c.Cone = netlist.Merge(c.Fanin, c.Fanout)

	// Step 2: switching signatures and bit-flip correlation.
	trace := captureTrace(s, opts)
	c.computeCorrelations(nl, trace)

	// Step 3: error lifetime and contamination.
	if err := c.lifetimeCampaign(s, opts); err != nil {
		return nil, err
	}
	c.computeCombLifetimes(nl)
	c.fillNodeTables()
	return c, nil
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

// captureTrace records a synthetic-benchmark trace of the MPU netlist.
func captureTrace(s *soc.SoC, opts Options) *logicsim.Trace {
	s.Reset()
	trace := logicsim.NewTrace(s.MPU.Netlist, opts.TraceCycles)
	for cyc := 0; cyc < opts.TraceCycles; cyc++ {
		cyc := cyc
		s.StepInject(func(func(netlist.NodeID) bool) []netlist.NodeID {
			if opts.BitParallel {
				trace.RecordSources(s.Sim, cyc)
			} else {
				trace.RecordAll(s.Sim, cyc)
			}
			return nil
		})
	}
	if opts.BitParallel {
		trace.FillCombParallel(s.Sim)
	}
	return trace
}

// computeCorrelations evaluates Corr_i(g, rs) for every node in the
// cones, taking the maximum over responding signals.
func (c *Characterization) computeCorrelations(nl *netlist.Netlist, trace *logicsim.Trace) {
	rsSigs := make([][]uint64, len(c.Responding))
	for i, rs := range c.Responding {
		rsSigs[i] = trace.SwitchSignature(rs)
		if d := float64(popcount(rsSigs[i])) / float64(trace.NumCycles()); d > c.rsDensity {
			c.rsDensity = d
		}
	}
	c.corrFanin = corrLayers(nl, trace, rsSigs, c.Fanin, false)
	c.corrFanout = corrLayers(nl, trace, rsSigs, c.Fanout, true)
}

func corrLayers(nl *netlist.Netlist, trace *logicsim.Trace, rsSigs [][]uint64, cone *netlist.Cone, forward bool) [][]float64 {
	out := make([][]float64, len(cone.ByDepth))
	for d, layer := range cone.ByDepth {
		out[d] = make([]float64, nl.NumNodes())
		for _, g := range layer {
			ss := trace.SwitchSignature(g)
			weight := popcount(ss)
			if weight == 0 {
				continue
			}
			best := 0.0
			for _, rsSig := range rsSigs {
				var overlap int
				if forward {
					// Flips at rs at cycle k reach g at k+d:
					// align rs's signature shifted up by d.
					overlap = andPopcountShiftUp(ss, rsSig, d)
				} else {
					// Flips at g at cycle k reach rs at k+d:
					// align rs's signature shifted down by d.
					overlap = andPopcountShiftDown(ss, rsSig, d)
				}
				if corr := float64(overlap) / float64(weight); corr > best {
					best = corr
				}
			}
			out[d][g] = best
		}
	}
	return out
}

// lifetimeCampaign injects one bit flip per register (at several probe
// points of the synthetic benchmark) and tracks how long the error
// stays visible in the responding-signal cones.
//
// The campaign is module-level: the golden run records the MPU's input
// waveforms, and each faulty run replays those inputs into a standalone
// netlist simulation. Lifetime and contamination are measured over the
// registers inside the responding-signal cones — registers outside the
// cones (e.g. a performance counter) can never influence the responding
// signals, so divergence there does not keep an error "alive" in the
// paper's sense.
func (c *Characterization) lifetimeCampaign(s *soc.SoC, opts Options) error {
	nl := s.MPU.Netlist
	regsInCone := map[netlist.NodeID]bool{}
	for _, layer := range c.Cone.ByDepth {
		for _, id := range layer {
			if nl.Node(id).Type == netlist.DFF {
				regsInCone[id] = true
			}
		}
	}
	if len(regsInCone) == 0 {
		return fmt.Errorf("precharac: no registers in responding-signal cones")
	}
	// coneRegs fixes the injection-spot order: workers are assigned
	// registers by index and results are merged back in this order, so
	// the campaign output does not depend on the worker count.
	coneRegs := make([]netlist.NodeID, 0, len(regsInCone))
	//maporder-ok (sorted below)
	for r := range regsInCone {
		coneRegs = append(coneRegs, r)
	}
	sortIDs(coneRegs)
	sums := map[netlist.NodeID]*RegChar{}
	for _, r := range coneRegs {
		sums[r] = &RegChar{Reg: r}
	}
	allRegs := nl.Regs()
	// inConeIdx[i] marks position i of RegState as security-relevant.
	inConeIdx := make([]bool, len(allRegs))
	for i, r := range allRegs {
		inConeIdx[i] = regsInCone[r]
	}
	inputs := nl.Inputs()

	// Probe points spread across the benchmark, past the privileged
	// setup.
	warmup := 64
	stride := (opts.TraceCycles - warmup) / opts.Probes
	if stride < 1 {
		stride = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(coneRegs) {
		workers = len(coneRegs)
	}
	// One private replay simulator per worker: a Simulator is not safe
	// for concurrent use, but forks share the immutable netlist, plan,
	// and topological order.
	replays := make([]*logicsim.Simulator, workers)
	base, err := logicsim.New(nl)
	if err != nil {
		return err
	}
	replays[0] = base
	for w := 1; w < workers; w++ {
		replays[w] = base.Fork()
	}
	// lifeSum/contamSum accumulate per-register across probes in fixed
	// slots of the sorted register order — every (register, probe) cell
	// has one writer, so the worker count never reorders an addition.
	lifeSum := make([]float64, len(coneRegs))
	contamSum := make([]float64, len(coneRegs))
	for p := 0; p < opts.Probes; p++ {
		probe := warmup + p*stride
		s.Reset()
		for s.Cycle() < probe {
			s.Step()
		}
		start := s.Sim.RegState()

		// Golden trajectory: per-cycle input vectors and register
		// states, captured from the full-system run.
		goldenIn := make([][]uint64, opts.LifetimeCap)
		golden := make([][]uint64, opts.LifetimeCap+1)
		golden[0] = start
		for k := 0; k < opts.LifetimeCap; k++ {
			k := k
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

		// Replay one injection per cone register, striped across the
		// workers against the shared read-only golden trajectory.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				replay := replays[w]
				for i := w; i < len(coneRegs); i += workers {
					life, contam := replayInjection(replay, coneRegs[i], start, goldenIn, golden, inputs, inConeIdx, allRegs, opts.LifetimeCap)
					lifeSum[i] += float64(life)
					contamSum[i] += float64(contam)
				}
			}(w)
		}
		wg.Wait()
	}
	for i, r := range coneRegs {
		rc := sums[r]
		rc.Lifetime = lifeSum[i] / float64(opts.Probes)
		rc.Contamination = contamSum[i] / float64(opts.Probes)
		rc.MemoryType = rc.Lifetime >= float64(opts.MemLifetimeMin) && rc.Contamination <= opts.MemContamMax
		c.Regs[r] = rc
	}
	return nil
}

// replayInjection flips one register at the probe state, replays the
// golden input waveforms, and returns the error's lifetime (cycles
// until the cone registers reconverge with the golden run, capped) and
// its contamination count (distinct other cone registers touched).
func replayInjection(replay *logicsim.Simulator, r netlist.NodeID, start []uint64, goldenIn, golden [][]uint64, inputs []netlist.NodeID, inConeIdx []bool, allRegs []netlist.NodeID, horizon int) (life, contam int) {
	replay.SetRegState(start)
	replay.FlipReg(r)
	life = horizon
	contamIdx := map[int]bool{}
	for k := 0; k < horizon; k++ {
		for i, id := range inputs {
			replay.SetInput(id, goldenIn[k][i])
		}
		replay.Step()
		state := replay.RegState()
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
	sortIDs(out)
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

func sortIDs(ids []netlist.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// --- bitset helpers ------------------------------------------------------

func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// andPopcountShiftDown counts bits where a[c] and b[c+shift] are both
// set (b shifted down towards cycle 0).
func andPopcountShiftDown(a, b []uint64, shift int) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & extractShifted(b, w, shift))
	}
	return n
}

// andPopcountShiftUp counts bits where a[c] and b[c-shift] are both set.
func andPopcountShiftUp(a, b []uint64, shift int) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & extractShifted(b, w, -shift))
	}
	return n
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
