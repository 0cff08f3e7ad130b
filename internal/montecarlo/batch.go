// Lane-batched campaign execution: speculative 64-sample bit-parallel
// RTL resume with exact scalar fallback.
//
// The scalar path pays three per-sample costs: a checkpoint restore to
// the injection cycle, one full SoC cycle to apply the gate-level
// injection, and an RTL resume of the faulty SoC to the marked access's
// decision. The batched path removes the first two by classifying every
// single-cycle sample against a cached golden attack window (the
// fault-free post-evaluation node values at each candidate injection
// cycle — the injection is a pure function of those values), and
// amortizes the third by packing up to 64 post-injection register
// states into the lanes of one forked logicsim.Simulator and stepping
// them together against the recorded golden bus trace.
//
// Speculation and fallback: a faulty MPU only influences the rest of
// the system through its grant/viol outputs at response-consumption
// cycles, so while a lane's outputs match the recorded golden responses
// the behavioural core, memory, and DMA provably stay on the golden
// trajectory and the shared replay is exact. A lane whose responding
// signals diverge is ejected to the scalar resume from the divergence
// cycle, reconstructing the full SoC state it would have had; a lane
// whose registers return to golden has converged (the fault died — the
// attack failed), mirroring the scalar convergence cut. Fixed-seed
// campaign results are bit-identical to the scalar path.
package montecarlo

import (
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/timingsim"
)

// batchState caches the golden attack window and the lane simulator; it
// is built lazily on the first batched run after RunGolden and reused
// for the rest of the campaign.
type batchState struct {
	// The recorded window [lo, hi]: lo = TargetCycle - TRange (clamped
	// to 0), hi = markedResp = TargetCycle + 1, the cycle the marked
	// response is consumed — no resume runs past it without diverging.
	lo, hi     int
	markedResp int
	// regs[c-lo] holds the golden register words at the beginning of
	// cycle c. The golden run never flips a lane, so each word is a
	// uniform broadcast and doubles as the 64-lane reference state.
	regs [][]uint64
	// comb[c-lo] is a bitset over node IDs of the golden post-Eval
	// values during cycle c (injection cycles only, c <= TargetCycle) —
	// exactly what a scalar StepInject would hand the inject callback.
	comb [][]uint64
	// regIndex maps a register node to its position in RegState order.
	regIndex map[netlist.NodeID]int
	sim      *logicsim.Simulator
	loadBuf  []uint64 // lane-load / fallback-restore scratch
}

// pendingResume is one deferred PathRTL sample awaiting a lane of a
// batched resume.
type pendingResume struct {
	idx   int // index into the caller's results slice
	te    int // injection cycle
	flips []netlist.NodeID
}

// ensureBatchState records the golden attack window once: register
// state per cycle plus the post-Eval value bitsets the gate-level
// injection consumes.
func (e *Engine) ensureBatchState() *batchState {
	if e.batch != nil {
		return e.batch
	}
	g := e.golden
	lo := g.TargetCycle - e.Attack.TRange
	if lo < 0 {
		lo = 0
	}
	hi := g.TargetCycle + 1
	b := &batchState{lo: lo, hi: hi, markedResp: g.TargetCycle + 1}
	nl := e.SoC.MPU.Netlist
	regs := nl.Regs()
	b.regIndex = make(map[netlist.NodeID]int, len(regs))
	for i, r := range regs {
		b.regIndex[r] = i
	}
	b.regs = make([][]uint64, hi-lo+1)
	b.comb = make([][]uint64, hi-lo+1)
	nn := nl.NumNodes()
	e.restoreTo(lo)
	for c := lo; ; c++ {
		b.regs[c-lo] = e.SoC.Sim.RegState()
		if c == hi {
			break
		}
		if c <= g.TargetCycle {
			bitset := make([]uint64, (nn+63)/64)
			e.SoC.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
				for i := 0; i < nn; i++ {
					if values(netlist.NodeID(i)) {
						bitset[i>>6] |= 1 << uint(i&63)
					}
				}
				return nil
			})
			b.comb[c-lo] = bitset
		} else {
			e.SoC.Step()
		}
	}
	b.sim = e.SoC.Sim.Fork()
	b.loadBuf = make([]uint64, len(regs))
	e.batch = b
	return b
}

// evalSample runs one sample's injection and classification against the
// cached golden window, without touching the SoC simulator. Samples the
// fast path cannot express exactly (effective multi-cycle disturbances,
// injection cycles outside the recorded window) fall through to the
// scalar RunOnce; rng consumption order is identical either way. When
// the outcome needs an RTL resume the result is returned with Path set
// to PathRTL and deferred=true, and the caller must complete it through
// a batched resume (or scalar fallback) before reading Success and
// ResumeCycles.
func (e *Engine) evalSample(rng *rand.Rand, sample fault.Sample, mode Mode) (res RunResult, te int, deferred bool) {
	g := e.golden
	b := e.ensureBatchState()
	te = g.TargetCycle - sample.T
	cycles := sample.Cycles
	if cycles < 1 || mode == RegisterAttack {
		cycles = 1
	}
	if max := g.TargetCycle - te + 1; cycles > max {
		cycles = max
	}
	if cycles != 1 || te < b.lo || te > g.TargetCycle {
		return e.RunOnce(rng, sample, mode), te, false
	}

	var flips []netlist.NodeID
	switch mode {
	case GateAttack:
		gates, dists := e.spotIndex().CombWithin(sample.Center, sample.Radius)
		if len(gates) > 0 {
			var strike timingsim.Strike
			strike, e.strikeWidths = e.Attack.StrikeFrom(sample, gates, dists, e.strikeWidths)
			injected := e.Timing.InjectBits(b.comb[te-b.lo], strike)
			flips = e.applyHardening(rng, injected.FlippedRegs)
		}
	case RegisterAttack:
		flips = e.applyHardening(rng, e.spotIndex().DFFWithin(sample.Center, sample.Radius))
	}
	res, needRTL := e.classifySingle(sample, te, flips)
	return res, te, needRTL
}

// RunBatch evaluates the samples exactly as consecutive RunOnce calls
// would (same rng consumption, bit-identical results) but completes the
// PathRTL resumes through the lane-batched speculative path. RunGolden
// must have been called.
func (e *Engine) RunBatch(rng *rand.Rand, samples []fault.Sample, mode Mode) []RunResult {
	results := make([]RunResult, len(samples))
	pend := make([]pendingResume, 0, 64)
	for i, s := range samples {
		res, te, deferred := e.evalSample(rng, s, mode)
		results[i] = res
		if deferred {
			pend = append(pend, pendingResume{idx: i, te: te, flips: res.Flipped})
		}
	}
	e.flushResumes(pend, results)
	return results
}

// flushResumes completes the deferred resumes in 64-lane batches. The
// lanes of a batch need not share an injection cycle: an unloaded lane
// of the forked simulator follows the golden trajectory exactly (inputs
// are broadcast and evaluation is lane-wise), so each sample's flips
// are XORed into its lane when the shared resume reaches that sample's
// te+1. Sorting by te keeps each batch's cycle span (and the staggered
// entries) tight. No sample's outcome depends on which batch carries
// it: each lane's trajectory is a function of only its own (te, flips)
// and the shared golden trace.
func (e *Engine) flushResumes(pend []pendingResume, results []RunResult) {
	sort.SliceStable(pend, func(i, j int) bool { return pend[i].te < pend[j].te })
	for start := 0; start < len(pend); start += 64 {
		end := min(start+64, len(pend))
		e.resumeBatch(pend[start:end], results)
	}
}

// resumeBatch resumes up to 64 post-injection register states together:
// lane l of every register holds lanes[l]'s faulty value, and the
// forked simulator steps once per cycle against the recorded golden bus
// trace, with each lane's flips entering at its own injection cycle +1.
// Per cycle, one XOR pass against the golden register words yields
// every lane's error-liveness bit (converged lanes retire as failed,
// matching the scalar convergence cut), and the responding grant/viol
// signals are compared against the recorded golden responses at
// consumption cycles — lanes that diverge behaviorally are ejected to
// the exact scalar resume from the divergence cycle. A lane still on
// the golden trajectory when the marked response is consumed saw the
// golden decision (trap), so its attack failed. lanes must be
// te-sorted.
func (e *Engine) resumeBatch(lanes []pendingResume, results []RunResult) {
	b := e.batch
	g := e.golden
	sim := b.sim
	startC := lanes[0].te + 1
	sim.SetRegState(b.regs[startC-b.lo])
	var active uint64
	next := 0
	useCut := !e.DisableConvergenceCut
	grant := e.SoC.MPU.OutGrant[0]
	viol := e.SoC.MPU.OutViol[0]
	trace := g.BusTrace
	//hot
	for c := startC; ; c++ {
		for next < len(lanes) && lanes[next].te+1 == c {
			bit := uint64(1) << uint(next)
			for _, r := range lanes[next].flips {
				sim.SetReg(r, sim.Val(r)^bit)
			}
			active |= bit
			next++
		}
		goldenRegs := b.regs[c-b.lo]
		if useCut {
			if conv := active &^ sim.RegDiffMask(goldenRegs); conv != 0 {
				for m := conv; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					results[lanes[l].idx].ResumeCycles = c - (lanes[l].te + 1)
				}
				active &^= conv
				if active == 0 && next == len(lanes) {
					return
				}
			}
		}
		if c == b.markedResp {
			// Every remaining lane reaches the marked decision with
			// golden behavioural state, so its outcome is a closed form
			// of its own grant/viol lanes: the scalar resume would step
			// this one cycle — consuming the marked response with the
			// lane's responding signals (committed = grant, trapped =
			// viol) — and exit resolved. No fallback simulation is
			// needed even for lanes whose signals diverge here.
			gw, vw := sim.Val(grant), sim.Val(viol)
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				r := &results[lanes[l].idx]
				r.ResumeCycles = c + 1 - (lanes[l].te + 1)
				r.Success = gw>>uint(l)&1 == 1 && vw>>uint(l)&1 == 0
			}
			return
		}
		ent := &trace[c]
		if ent.RespConsumed {
			div := (sim.Val(grant) ^ logicsim.Broadcast(ent.RespGrant)) |
				(sim.Val(viol) ^ logicsim.Broadcast(ent.RespViol))
			if div &= active; div != 0 {
				for m := div; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					resumed, success := e.resumeDiverged(c, uint(l), goldenRegs)
					r := &results[lanes[l].idx]
					r.ResumeCycles = c - (lanes[l].te + 1) + resumed
					r.Success = success
				}
				active &^= div
				if active == 0 && next == len(lanes) {
					return
				}
			}
		}
		e.SoC.MPU.DriveBusTrace(sim, ent)
		sim.Step()
	}
}

// resumeDiverged ejects one lane from a batched resume at cycle c: it
// reconstructs the exact SoC state the scalar path would have — golden
// behavioural state (outputs matched every consumed response before c)
// with the lane's faulty register bits in lane 0 and golden values in
// lanes 1–63, as a scalar faulty run keeps them — and finishes with the
// scalar RTL resume.
func (e *Engine) resumeDiverged(c int, lane uint, goldenRegs []uint64) (resumed int, success bool) {
	b := e.batch
	e.restoreTo(c)
	words := b.loadBuf
	for i, r := range e.SoC.MPU.Netlist.Regs() {
		words[i] = goldenRegs[i]&^1 | b.sim.Val(r)>>lane&1
	}
	e.SoC.Sim.SetRegState(words)
	return e.resumeRTL()
}
