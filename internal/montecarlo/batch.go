// Lane-batched campaign execution: speculative bit-parallel RTL resume
// in sweeps of a 64-lane simulator, with diverged lanes finished in
// groups that share their behavioural state.
//
// A scalar RunOnce pays three per-sample costs: a checkpoint restore to
// the injection cycle, one full SoC cycle to apply the gate-level
// injection, and an RTL resume of the faulty SoC to the marked access's
// decision. Every campaign, and RunBatch, removes the first two by
// classifying every single-cycle sample against the model's golden attack
// window (the fault-free post-evaluation node values at each candidate
// injection cycle — the injection is a pure function of those values),
// and amortizes the third by sweeping the deferred samples through the
// 64 lanes of one forked logicsim.Simulator, stepped against the
// recorded golden bus trace: each sample's post-injection register state
// enters a free lane at its own injection cycle, and a lane freed by
// convergence or ejection takes a later sample.
//
// Speculation and grouping: a faulty MPU only influences the rest of
// the system through its grant/viol outputs at response-consumption
// cycles, so while a lane's outputs match the recorded golden responses
// the behavioural core, memory, and DMA provably stay on the golden
// trajectory and the shared replay is exact. A response to a DMA read
// changes nothing but the DMA violation count, so a lane that differs
// there stays in the batch with a per-lane DMAViol offset. Lanes whose
// responses to core accesses diverge are ejected, and lanes that
// diverge to the same grant/viol pair at the same cycle with the same
// offset still share one behavioural state: they resume together on one
// SoC (resumeGroup), splitting again whenever a later response differs
// between them. A lane whose registers return to golden, with a zero
// offset, has converged (the fault died — the attack failed), mirroring
// the scalar convergence cut. Fixed-seed campaign results are
// bit-identical to running every draw through RunOnce.
package montecarlo

import (
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// batchState is an engine's own part of the lane-batched path: the
// lane simulator, forked from the engine's SoC, and the scratch of the
// batched and grouped resumes. The golden attack window they read is
// the engine's model.
type batchState struct {
	sim *logicsim.Simulator
	// slot[l] is the lane that lane l of sim carries in the running
	// sweep.
	slot [64]pendingResume
	// laneBuf and packBuf are register-word scratch for packing
	// ejected lanes into a group.
	laneBuf, packBuf []uint64
	// groups is the stack of split groups awaiting their resume.
	groups []laneGroup
	// teCount and sorted are flushResumes' counting-sort buckets (one
	// per injection cycle of the window, plus one) and output.
	teCount []int
	sorted  []pendingResume
	counts  batchCounts
}

// batchCounts tallies the batched resumes: groups run (classes and
// splits), the groups among them that a later split started, the lanes
// ejected into them, the grouped lanes that retired through the
// convergence cut, the lane divergences at DMA reads kept in the batch
// as offsets (a lane counts once per such response), the lane-cycles
// whose cut a nonzero offset withheld, and the groups entered with a
// nonzero offset; and the work of the sweeps: lane-simulator steps,
// flushes and the sweeps they ran, register passes that reset the
// slots of ejected lanes, and jumps over cycles with no live lane.
type batchCounts struct {
	Groups, Splits, Lanes, Cut            int
	Absorbed, Withheld, OffsetGroups      int
	Steps, Flushes, Sweeps, Resets, Jumps int
}

// shadowLane is the group lane that follows the golden initial MPU state
// under the group's own bus traffic — what lanes 1–63 of a scalar
// faulty resume hold — so groups carry at most shadowLane lanes.
const shadowLane = 63

// laneGroup is a pending split group: the SoC state at its first cycle,
// with the group's lanes packed into register lanes 0..n-1 and the
// shadow in the rest, and the batch lane each group lane carries.
type laneGroup struct {
	cp   *soc.Checkpoint
	n    int
	lane [shadowLane]uint8
}

// pendingResume is one deferred PathRTL sample awaiting a lane of a
// batched resume.
type pendingResume struct {
	idx   int // index into the caller's results slice
	te    int // injection cycle
	flips []netlist.NodeID
}

// spotTable holds, per injection cycle of the window and candidate
// center of one attack, the latch bound of the center's widest spot:
// the gates within rmax = Radius + RadiusJitter of it. The spots of
// every radius in [0, rmax] are nested in that spot, and StrikeFrom
// deposits at most the drawn width on each gate, so a draw whose record
// rejects its instant and width is one InjectPruned would flip nothing
// for.
type spotTable struct {
	rmax float64
	// row[id] is center id's row, -1 for a node that is no candidate.
	row []int32
	// bounds[k] is the record of a center in cycle c, at k = (c-lo) *
	// centers + row. Bit k of front is set when some instant in [0,
	// tmax] with a width of at most wmax (the technique's clock period
	// and widest pulse) passes record k: a draw inside that range whose
	// bit is clear is rejected without loading the record.
	bounds     []timingsim.SpotBound
	front      []uint64
	centers    int
	tmax, wmax float64
}

// newSpotTable builds the spot records of the engine's attack's
// candidates in each cycle of tables: one spot lookup per candidate, at
// rmax.
func (e *Engine) newSpotTable(tables []*timingsim.CycleTable) *spotTable {
	a := e.attack
	n := 0
	for _, c := range a.Candidates {
		n = max(n, int(c)+1)
	}
	tech := a.Technique
	t := &spotTable{rmax: tech.Radius + tech.RadiusJitter, row: make([]int32, n),
		tmax: tech.ClockPeriod, wmax: tech.PulseWidth + tech.PulseJitter}
	for i := range t.row {
		t.row[i] = -1
	}
	for _, c := range a.Candidates {
		if c >= 0 && t.row[c] < 0 {
			t.row[c] = int32(t.centers)
			t.centers++
		}
	}
	t.bounds = make([]timingsim.SpotBound, len(tables)*t.centers)
	t.front = make([]uint64, (len(t.bounds)+63)/64)
	for c, r := range t.row {
		if r < 0 {
			continue
		}
		gates, _ := e.spotIndex().CombWithin(netlist.NodeID(c), t.rmax)
		for i, ct := range tables {
			k := i*t.centers + int(r)
			t.bounds[k] = ct.SpotBound(gates)
			if ct.SpotMayLatchWithin(&t.bounds[k], t.tmax, t.wmax) {
				t.front[k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
	return t
}

// mayLatch reports whether a draw in the i-th cycle of the window, with
// table ct, could flip a register. False is a proof that InjectPruned
// flips nothing for it. True promises nothing, and is the answer for
// every draw the table does not cover: its center is no candidate, its
// radius lies outside [0, rmax] (NaN included) or its width is
// negative.
func (t *spotTable) mayLatch(ct *timingsim.CycleTable, i int, s fault.Sample) bool {
	if !(0 <= s.Radius && s.Radius <= t.rmax && s.Width >= 0) || s.Center < 0 || int(s.Center) >= len(t.row) {
		return true
	}
	r := t.row[s.Center]
	if r < 0 {
		return true
	}
	k := i*t.centers + int(r)
	if t.front[k>>6]>>(uint(k)&63)&1 == 0 && 0 <= s.Time && s.Time <= t.tmax && s.Width <= t.wmax {
		return false
	}
	return ct.SpotMayLatch(&t.bounds[k], s.Time, s.Width)
}

// newBatchState forks e's lane simulator and sizes the scratch of its
// batched resumes to the window of its model.
func newBatchState(e *Engine) *batchState {
	nr := len(e.SoC.MPU.Netlist.Regs())
	return &batchState{
		sim:     e.SoC.Sim.Fork(),
		laneBuf: make([]uint64, nr),
		packBuf: make([]uint64, nr),
		teCount: make([]int, len(e.m.comb)+1),
	}
}

// evalSample runs one sample's injection and classification against the
// model's golden window, without touching the SoC simulator; gt is the
// model's gate tables for a gate attack (tablesFor). Samples the
// fast path cannot express exactly (effective multi-cycle disturbances,
// injection cycles outside the recorded window) fall through to the
// scalar RunOnce; rng consumption order is identical either way. When
// the outcome needs an RTL resume the result is returned with Path set
// to PathRTL and deferred=true, and the caller must complete it through
// a batched resume before reading Success and ResumeCycles. The fast
// path appends the flip set to *arena and returns a capped sub-slice of
// it as the result's Flipped, so it lives exactly as long as the
// caller's arena.
func (e *Engine) evalSample(rng *rand.Rand, sample fault.Sample, mode Mode, gt *gateTables, arena *[]netlist.NodeID) (res RunResult, te int, deferred bool) {
	m := e.m
	g := m.golden
	te = g.TargetCycle - sample.T
	cycles := sample.Cycles
	if cycles < 1 || mode == RegisterAttack {
		cycles = 1
	}
	if max := g.TargetCycle - te + 1; cycles > max {
		cycles = max
	}
	if cycles != 1 || te < m.lo || te > g.TargetCycle {
		return e.RunOnce(rng, sample, mode), te, false
	}

	var flips []netlist.NodeID
	switch mode {
	case GateAttack:
		ct := gt.cycle[te-m.lo]
		if !gt.spots.mayLatch(ct, te-m.lo, sample) {
			break // no struck gate can latch; InjectPruned would flip nothing
		}
		gates, dists := e.spotIndex().CombWithin(sample.Center, sample.Radius)
		if len(gates) > 0 {
			var strike timingsim.Strike
			strike, e.strikeWidths = e.attack.StrikeFrom(sample, gates, dists, e.strikeWidths)
			// The pruned sweep flips exactly the registers InjectBits
			// would, skipping strikes that provably reach no latching
			// window. applyHardening draws only per flipped register,
			// so rng use is unchanged.
			injected := e.Timing.InjectPruned(ct, strike)
			flips = e.applyHardening(rng, injected.FlippedRegs)
		}
	case RegisterAttack:
		flips = e.applyHardening(rng, e.spotIndex().DFFWithin(sample.Center, sample.Radius))
	}
	res, needRTL := e.classifySingle(sample.T, te, flips)
	if n := len(res.Flipped); n > 0 {
		*arena = append(*arena, res.Flipped...)
		res.Flipped = (*arena)[len(*arena)-n : len(*arena) : len(*arena)]
	}
	return res, te, needRTL
}

// RunBatch evaluates the samples exactly as consecutive RunOnce calls
// would (same rng consumption, bit-identical results) but completes the
// PathRTL resumes through the lane-batched speculative path. RunGolden
// must have been called. The results own their Flipped sets: the call's
// flip sets share one arena of its own, never the engine's window
// arena.
func (e *Engine) RunBatch(rng *rand.Rand, samples []fault.Sample, mode Mode) []RunResult {
	results := make([]RunResult, len(samples))
	pend := make([]pendingResume, 0, 64)
	var flips []netlist.NodeID
	gt := e.tablesFor(mode)
	for i, s := range samples {
		res, te, deferred := e.evalSample(rng, s, mode, gt, &flips)
		results[i] = res
		if deferred {
			pend = append(pend, pendingResume{idx: i, te: te, flips: res.Flipped})
		}
	}
	e.flushResumes(pend, results)
	return results
}

// flushResumes completes the deferred resumes in sweeps of the lane
// simulator over the lanes sorted by te (a stable counting sort over the
// recorded window, in linear time). A sweep runs until its last lane is
// done, and the lanes that found every slot busy wait for the next one.
// No sample's outcome depends on the sweep or slot that carries it: each
// lane's trajectory is a function of only its own (te, flips) and the
// shared golden trace.
func (e *Engine) flushResumes(pend []pendingResume, results []RunResult) {
	if len(pend) == 0 {
		return
	}
	b, lo := e.batch, e.m.lo
	count := b.teCount
	clear(count)
	for _, p := range pend {
		count[p.te-lo+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	sorted := slices.Grow(b.sorted[:0], len(pend))[:len(pend)]
	for _, p := range pend {
		sorted[count[p.te-lo]] = p
		count[p.te-lo]++
	}
	b.sorted = sorted
	b.counts.Flushes++
	for lanes := sorted; len(lanes) > 0; {
		lanes = e.resumeSweep(lanes, results)
	}
}

// resumeSweep resumes the te-sorted lanes in one sweep of the lane
// simulator and returns the lanes that found no free slot, in te order,
// compacted into the front of lanes.
//
// The sweep starts from the golden registers at the first lane's te+1
// and steps once per cycle against the recorded golden bus trace. A slot
// (a lane of the simulator) that carries no sample follows the golden
// trajectory exactly, because inputs are broadcast and evaluation is
// lane-wise, so a lane enters at its te+1 by XORing its flips into the
// lowest free slot that is still golden. A slot whose lane converged is
// golden; one whose lane was ejected is not, and when no golden slot is
// free, one register pass resets every such slot to the golden registers
// of the cycle. When no slot is live, the sweep jumps to the next entry
// cycle with the golden registers instead of stepping.
//
// Per cycle, one XOR pass against the golden register words yields
// every slot's error-liveness bit (converged lanes retire as failed,
// matching the scalar convergence cut), and the responding grant/viol
// signals are compared against the recorded golden responses at
// consumption cycles. A lane that diverges at a DMA read's response
// stays: that response changes only DMAViol, so the lane keeps the
// golden core, memory and DMA state and only records its DMAViol offset
// from golden, and the cut, which compares DMAViol too, skips it while
// the offset is nonzero. Lanes that diverge at a core access's response
// are ejected to grouped resumes from the divergence cycle. A lane still
// on the golden trajectory when the marked response is consumed saw the
// golden decision (trap), so its attack failed. Every lane has te <=
// TargetCycle < markedResp, so by the marked response every lane of the
// sweep has entered or been set aside.
func (e *Engine) resumeSweep(lanes []pendingResume, results []RunResult) (waiting []pendingResume) {
	b := e.batch
	g := e.m.golden
	sim := b.sim
	useCut := !e.noConvergenceCut
	grant := e.SoC.MPU.OutGrant[0]
	viol := e.SoC.MPU.OutViol[0]
	trace := g.BusTrace
	b.counts.Sweeps++
	// active holds the slots that carry a live lane, dirty the free
	// slots that left the golden trajectory.
	var active, dirty uint64
	// off[l] is slot l's DMAViol minus the golden run's; offMask holds
	// the slots whose offset is nonzero.
	var off [64]int
	var offMask uint64
	waiting = lanes[:0]
	next := 0
	c := lanes[0].te + 1
	sim.SetRegState(g.Regs[c])
	//hot
	for ; ; c++ {
		for ; next < len(lanes) && lanes[next].te+1 == c; next++ {
			free := ^(active | dirty)
			if free == 0 && dirty != 0 {
				sim.ResetLanes(g.Regs[c], dirty)
				b.counts.Resets++
				free, dirty = dirty, 0
			}
			if free == 0 {
				waiting = append(waiting, lanes[next]) //alloc-ok (compacts lanes in place)
				continue
			}
			l := bits.TrailingZeros64(free)
			bit := uint64(1) << uint(l)
			b.slot[l] = lanes[next]
			for _, r := range lanes[next].flips {
				sim.SetReg(r, sim.Val(r)^bit)
			}
			off[l] = 0
			offMask &^= bit
			active |= bit
		}
		if useCut && active != 0 {
			if conv := active &^ sim.RegDiffMask(g.Regs[c]); conv != 0 {
				b.counts.Withheld += bits.OnesCount64(conv & offMask)
				conv &^= offMask
				for m := conv; m != 0; m &= m - 1 {
					p := &b.slot[bits.TrailingZeros64(m)]
					results[p.idx].ResumeCycles = c - (p.te + 1)
				}
				active &^= conv
			}
		}
		if active != 0 && c == e.m.markedResp {
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
				p := &b.slot[l]
				r := &results[p.idx]
				r.ResumeCycles = c + 1 - (p.te + 1)
				r.Success = gw>>uint(l)&1 == 1 && vw>>uint(l)&1 == 0
			}
			return waiting
		}
		ent := &trace[c]
		if active != 0 && ent.RespConsumed {
			vw, gv := sim.Val(viol), logicsim.Broadcast(ent.RespViol)
			div := (sim.Val(grant) ^ logicsim.Broadcast(ent.RespGrant)) | (vw ^ gv)
			if div &= active; div != 0 {
				if ent.RespDMARead {
					for m := div; m != 0; m &= m - 1 {
						l := bits.TrailingZeros64(m)
						off[l] += int(vw>>uint(l)&1) - int(gv>>uint(l)&1)
						offMask &^= 1 << uint(l)
						if off[l] != 0 {
							offMask |= 1 << uint(l)
						}
					}
					b.counts.Absorbed += bits.OnesCount64(div)
				} else {
					e.resumeClasses(c, div, &off, results)
					active &^= div
					dirty |= div
				}
			}
		}
		if active == 0 {
			if next == len(lanes) {
				return waiting
			}
			c = lanes[next].te
			sim.SetRegState(g.Regs[c+1])
			dirty = 0
			b.counts.Jumps++
			continue
		}
		e.SoC.MPU.DriveBusTrace(sim, ent)
		sim.Step()
		b.counts.Steps++
	}
}

// resumeClasses finishes the lanes of the sweep's slots in div, which
// diverged from the golden responses at cycle c. Up to c their
// behavioural state was golden except DMAViol, which exceeds golden by
// the slot's off entry, and the response they consume at c is their own
// grant/viol pair, so lanes with equal pairs and equal offsets share one
// behavioural state from then on. Each such class, cut into groups of at
// most shadowLane lanes, restores the golden state at c with DMAViol
// raised by the offset, the class's faulty register bits in lanes
// 0..k-1 and the golden bits in the shadow lanes, exactly as a scalar
// resume of each lane would hold them, and resumes as a group.
func (e *Engine) resumeClasses(c int, div uint64, off *[64]int, results []RunResult) {
	b := e.batch
	mpu := e.SoC.MPU
	gw, vw := b.sim.Val(mpu.OutGrant[0]), b.sim.Val(mpu.OutViol[0])
	b.sim.RegStateInto(b.laneBuf)
	var lane [shadowLane]uint8
	for _, class := range [4]uint64{gw & vw, gw &^ vw, vw &^ gw, ^(gw | vw)} {
		for rest := class & div; rest != 0; {
			k := off[bits.TrailingZeros64(rest)]
			var same uint64
			for m := rest; m != 0; m &= m - 1 {
				if l := bits.TrailingZeros64(m); off[l] == k {
					same |= 1 << uint(l)
				}
			}
			rest &^= same
			for m := same; m != 0; {
				n := 0
				for ; m != 0 && n < shadowLane; m &= m - 1 {
					lane[n] = uint8(bits.TrailingZeros64(m))
					n++
				}
				e.restoreTo(c)
				e.SoC.DMAViol += k
				if k != 0 {
					b.counts.OffsetGroups++
				}
				packLanes(b.packBuf, b.laneBuf, e.m.golden.Regs[c], lane[:n])
				e.SoC.Sim.SetRegState(b.packBuf)
				b.counts.Lanes += n
				e.resumeGroup(lane[:n], results)
				for len(b.groups) > 0 {
					grp := b.groups[len(b.groups)-1]
					b.groups = b.groups[:len(b.groups)-1]
					e.SoC.Restore(grp.cp)
					e.resumeGroup(grp.lane[:grp.n], results)
				}
			}
		}
	}
}

// resumeGroup resumes the SoC, whose register lane j carries the lane of
// the sweep's slot lane[j] and whose lanes len(lane)..63 carry the
// shadow, until every lane has an outcome. It is the scalar resumeRTL run for all of the
// group's lanes at once, exact because they share the core, memory and
// DMA state: the core reads lane 0's responses, and at every
// consumption the lanes whose grant/viol differ from lane 0's split off
// into a new group. A lane retires through the convergence cut when the
// architectural state, its own lane and the shadow lane all equal the
// golden state — the scalar resume's all-lanes condition.
func (e *Engine) resumeGroup(lane []uint8, results []RunResult) {
	g := e.m.golden
	s := e.SoC
	sim := s.Sim
	grant, viol := s.MPU.OutGrant[0], s.MPU.OutViol[0]
	limit := g.FinalCycle + resumeMargin
	useCut := !e.noConvergenceCut
	live := uint64(1)<<len(lane) - 1
	slot := &e.batch.slot
	e.batch.counts.Groups++
	//hot
	for !s.Done() && !s.Marked.Resolved && s.Cycle() < limit {
		c := s.Cycle()
		if useCut && c < len(g.Arch) && s.Arch() == g.Arch[c] {
			if diff := sim.RegDiffMask(g.Regs[c]); diff>>shadowLane == 0 {
				if conv := live &^ diff; conv != 0 {
					for m := conv; m != 0; m &= m - 1 {
						p := &slot[lane[bits.TrailingZeros64(m)]]
						results[p.idx].ResumeCycles = c - (p.te + 1)
						e.batch.counts.Cut++
					}
					if live &^= conv; live == 0 {
						return
					}
				}
			}
		}
		if s.ConsumesResponse() {
			gw, vw := sim.Val(grant), sim.Val(viol)
			if split := ((gw ^ -(gw & 1)) | (vw ^ -(vw & 1))) & live; split != 0 {
				e.splitGroup(split, lane)
				if live &^= split; live == 0 {
					return
				}
			}
		}
		s.Step()
	}
	success := s.AttackSucceeded()
	for m := live; m != 0; m &= m - 1 {
		p := &slot[lane[bits.TrailingZeros64(m)]]
		r := &results[p.idx]
		r.ResumeCycles = s.Cycle() - (p.te + 1)
		r.Success = success
	}
}

// splitGroup pushes the group lanes in split, which are about to consume
// a response different from lane 0's, as a new group starting from the
// SoC's current state.
func (e *Engine) splitGroup(split uint64, lane []uint8) {
	b := e.batch
	grp := laneGroup{cp: e.SoC.Snapshot()}
	var src [shadowLane]uint8
	for m := split; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		grp.lane[grp.n], src[grp.n] = lane[j], uint8(j)
		grp.n++
	}
	packLanes(grp.cp.MPURegs, grp.cp.MPURegs, grp.cp.MPURegs, src[:grp.n])
	b.groups = append(b.groups, grp)
	b.counts.Splits++
}

// packLanes writes register words whose lane j is lane src[j] of from
// and whose other lanes all hold lane shadowLane of shadow. A word in
// which every source lane already equals the shadow lane is that lane's
// broadcast; only the other words are packed lane by lane. dst may alias
// from and shadow.
func packLanes(dst, from, shadow []uint64, src []uint8) {
	var mask uint64
	for _, l := range src {
		mask |= 1 << l
	}
	for i := range dst {
		f := from[i]
		w := -(shadow[i] >> shadowLane)
		if (f^w)&mask != 0 {
			for j, l := range src {
				w = w&^(1<<uint(j)) | (f>>l&1)<<uint(j)
			}
		}
		dst[i] = w
	}
}
