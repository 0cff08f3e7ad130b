// Package montecarlo is the cross-level evaluation engine (Section 5 of
// the paper): it combines the RTL-level golden run with checkpoints, the
// two-step importance sampling, gate-level fault injection of the
// sampled cycle, and — depending on which registers latch errors —
// analytical evaluation or an RTL resume compared against the golden
// outcome. Its product is the System Security Factor estimate.
package montecarlo

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/analytical"
	"repro/internal/fault"
	"repro/internal/modelcheck"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// Mode selects what the strike physically hits.
type Mode int

// Attack modes.
const (
	// GateAttack injects voltage transients at combinational gates and
	// lets the timed gate-level simulation decide which registers
	// latch errors — the paper's primary model.
	GateAttack Mode = iota
	// RegisterAttack flips the struck registers directly (classic
	// SEU model on sequential elements), used by the paper's Fig 7(b)
	// and Fig 10(b) comparisons.
	RegisterAttack
)

// String returns the display name.
func (m Mode) String() string {
	switch m {
	case GateAttack:
		return "gate"
	case RegisterAttack:
		return "register"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "gate":
		return GateAttack, nil
	case "register":
		return RegisterAttack, nil
	default:
		return 0, fmt.Errorf("montecarlo: unknown attack mode %q", s)
	}
}

// OutcomeClass buckets where the latched errors ended up (Fig 10(a)).
type OutcomeClass int

// Outcome classes.
const (
	// Masked: no register latched an error.
	Masked OutcomeClass = iota
	// MemoryOnly: errors confined to memory-type registers.
	MemoryOnly
	// Mixed: at least one computation-type register got an error.
	Mixed
)

// String returns the display name.
func (c OutcomeClass) String() string {
	switch c {
	case Masked:
		return "masked"
	case MemoryOnly:
		return "memory-only"
	case Mixed:
		return "both"
	default:
		return fmt.Sprintf("OutcomeClass(%d)", int(c))
	}
}

// EvalPath records how a run's outcome was decided.
type EvalPath int

// Evaluation paths.
const (
	// PathMasked: nothing latched, outcome known immediately.
	PathMasked EvalPath = iota
	// PathAnalytical: memory-type-only errors, closed-form policy
	// evaluation.
	PathAnalytical
	// PathPruned: computation-type errors whose lifetime cannot reach
	// the target cycle — failure without resuming.
	PathPruned
	// PathRTL: full RTL resume to the marked access.
	PathRTL
)

// String returns the display name.
func (p EvalPath) String() string {
	switch p {
	case PathMasked:
		return "masked"
	case PathAnalytical:
		return "analytical"
	case PathPruned:
		return "pruned"
	case PathRTL:
		return "rtl"
	default:
		return fmt.Sprintf("EvalPath(%d)", int(p))
	}
}

// RunResult is the outcome of a single fault-attack run.
type RunResult struct {
	Success bool
	Class   OutcomeClass
	Path    EvalPath
	// Flipped are the registers that latched errors (post-hardening).
	Flipped []netlist.NodeID
	// ResumeCycles counts RTL cycles simulated after injection.
	ResumeCycles int
}

// Golden holds the golden-run artifacts: checkpoints, the target cycle,
// the access log, and the fault-free outcome.
type Golden struct {
	Checkpoints []*soc.Checkpoint
	Interval    int
	// TargetCycle is Tt: the cycle the marked access's MPU decision
	// latches.
	TargetCycle int
	// MarkedIssue is the cycle the marked access was driven.
	MarkedIssue int
	// SetupEnd is the first user-mode cycle (MPU configured).
	SetupEnd int
	// FinalCycle is when the golden run halted.
	FinalCycle int
	// Accesses is the full golden access log.
	Accesses []soc.AccessEvent
	// Policy is the configured protection policy.
	Policy analytical.Policy
	// Arch[c] and Regs[c] are the golden state at the beginning of
	// cycle c (0 <= c <= FinalCycle): the architectural state and the
	// MPU register words (in Netlist.Regs order; the golden run never
	// flips a lane, so every word is a uniform broadcast). An RTL
	// resume whose state equals both at the same cycle is back on the
	// golden trajectory and can stop early with the golden outcome.
	Arch []soc.Arch
	Regs [][]uint64
	// BusTrace[c] is the golden system/MPU interface activity at cycle
	// c: the values driven onto the MPU ports and the responses the
	// system consumed. The lane-batched resume replays it into a forked
	// simulator instead of re-executing the behavioural core.
	BusTrace []soc.BusTraceEntry
}

// Engine evaluates fault attacks on one SoC + benchmark. It is not safe
// for concurrent use; create one engine per goroutine with Clone. The
// engines of an evaluation share its model (the golden run, the window
// snapshots and the gate tables; see model), which none of them writes;
// each owns its SoC, lane simulator, timed-simulator fork, spot index,
// hardening map and scratch.
type Engine struct {
	SoC    *soc.SoC
	Place  *placement.Placement
	Timing *timingsim.Simulator

	// Char enables memory/computation classification, the analytical
	// path and lifetime pruning; nil forces RTL for everything.
	Char *precharac.Characterization
	// Analytical enables the closed-form path for memory-type-only
	// errors; nil forces RTL for them.
	Analytical *analytical.Evaluator

	// Hardened maps a register to its resilience factor F: an error
	// that would latch there survives with probability 1/F
	// (soft-error-resilient cell designs, refs [19, 20] of the
	// paper).
	Hardened map[netlist.NodeID]float64

	// DisableConvergenceCut turns off the golden-state early exit of
	// RTL resumes: with the cut enabled (default), a resume whose
	// state equals the golden run's at the same cycle stops
	// immediately with the golden outcome (attack failed). Outcomes
	// are identical either way; only ResumeCycles changes.
	DisableConvergenceCut bool

	// attack is the attack the engine evaluates, fixed when it is built.
	attack *fault.Attack
	m      *model // nil before RunGolden
	batch  *batchState
	win    windowBufs

	// Per-run scratch (Engine is single-goroutine).
	seen    map[netlist.NodeID]bool
	flipBuf []netlist.NodeID
	hardBuf []netlist.NodeID // applyHardening's output
	// spots caches radius queries around repeated strike centers (the
	// candidate set is finite, so centers recur constantly); it is
	// engine-owned because SpotIndex is not concurrency-safe. Its sets
	// are shared and read-only.
	spots        *placement.SpotIndex
	strikeWidths []float64
}

// spotIndex returns the engine's lazily-built radius-query cache.
func (e *Engine) spotIndex() *placement.SpotIndex {
	if e.spots == nil {
		e.spots = e.Place.NewSpotIndex()
	}
	return e.spots
}

// New assembles an engine. The SoC must be loaded with the attack
// benchmark (not the synthetic pre-characterization program). It runs
// the static verification layer over the design first; the netlist's
// structural checks run once per MPU (soc.MPU.CheckNetlist), the
// placement and responding-signal checks on every call.
func New(s *soc.SoC, attack *fault.Attack, place *placement.Placement, dm timingsim.DelayModel, char *precharac.Characterization, eval *analytical.Evaluator) (*Engine, error) {
	report := modelcheck.CheckModelFrom(s.MPU.CheckNetlist(), modelcheck.Model{
		Netlist:    s.MPU.Netlist,
		Place:      place,
		Responding: s.MPU.RespondingSignals,
	})
	if err := report.Err(modelcheck.Error); err != nil {
		return nil, fmt.Errorf("montecarlo: design rejected by static verification: %w", err)
	}
	tsim, err := timingsim.New(s.MPU.Netlist, dm)
	if err != nil {
		return nil, err
	}
	return &Engine{
		SoC: s, Place: place, Timing: tsim,
		Char: char, Analytical: eval,
		attack: attack,
	}, nil
}

// resumeMargin bounds an RTL resume beyond the golden final cycle
// (faulted runs can run longer, e.g. skipped traps).
const resumeMargin = 200

// Clone returns an engine over the receiver's model: a fresh SoC on the
// same program and MPU, its own forks of the timed and lane simulators,
// and New's defaults with no hardening. It shares the placement, the
// characterization and the analytical evaluator, which are read-only,
// and runs no golden run and no static verification. RunGolden must
// have been called on the receiver.
func (e *Engine) Clone() (*Engine, error) {
	if e.m == nil {
		return nil, fmt.Errorf("montecarlo: Clone before RunGolden")
	}
	s, err := soc.WithMPU(e.SoC.Cfg, e.SoC.Prog, e.SoC.MPU)
	if err != nil {
		return nil, err
	}
	c := &Engine{
		SoC: s, Place: e.Place, Timing: e.Timing.Fork(),
		Char: e.Char, Analytical: e.Analytical,
		attack: e.attack,
		m:      e.m,
	}
	c.batch = newBatchState(c)
	return c, nil
}

// Golden returns the golden-run artifacts (nil before RunGolden).
func (e *Engine) Golden() *Golden {
	if e.m == nil {
		return nil
	}
	return e.m.golden
}

// RunGolden performs the fault-free reference run, dumping a checkpoint
// every interval cycles, and verifies the security mechanism works: the
// marked access must trap. It then builds the engine's model from the
// run (see newModel); engines cloned from this one share it.
func (e *Engine) RunGolden(interval int) (*Golden, error) {
	if interval < 1 {
		return nil, fmt.Errorf("montecarlo: checkpoint interval %d", interval)
	}
	s := e.SoC
	s.Reset()
	s.LogAccesses = true
	s.Accesses = s.Accesses[:0]
	s.LogBusTrace = true
	s.BusTrace = s.BusTrace[:0]
	g := &Golden{Interval: interval, SetupEnd: -1}
	g.Checkpoints = append(g.Checkpoints, s.Snapshot())
	g.record(s)
	for !s.Done() && s.Cycle() < s.Cfg.MaxCycles {
		s.Step()
		g.record(s)
		if g.SetupEnd < 0 && !s.Priv() {
			g.SetupEnd = s.Cycle()
		}
		if s.Cycle()%interval == 0 {
			g.Checkpoints = append(g.Checkpoints, s.Snapshot())
		}
	}
	s.LogAccesses = false
	s.LogBusTrace = false
	if !s.Done() {
		return nil, fmt.Errorf("montecarlo: golden run did not halt within %d cycles", s.Cfg.MaxCycles)
	}
	if !s.Marked.Resolved {
		return nil, fmt.Errorf("montecarlo: golden run never issued the marked access")
	}
	if s.AttackSucceeded() {
		return nil, fmt.Errorf("montecarlo: security mechanism broken — the marked access succeeded without any fault")
	}
	g.TargetCycle = s.Marked.DecisionCycle
	g.MarkedIssue = s.Marked.IssueCycle
	g.FinalCycle = s.Cycle()
	g.Accesses = append([]soc.AccessEvent(nil), s.Accesses...)
	g.BusTrace = append([]soc.BusTraceEntry(nil), s.BusTrace...)
	if e.Analytical != nil {
		// The policy is stable from SetupEnd to the end of the run;
		// capture it from the final state.
		g.Policy = e.Analytical.CurrentPolicy(s)
	}
	if e.attack.TRange > g.TargetCycle-g.SetupEnd {
		return nil, fmt.Errorf("montecarlo: TRange %d reaches into MPU setup (target %d, setup end %d)",
			e.attack.TRange, g.TargetCycle, g.SetupEnd)
	}
	e.m = newModel(s, g, e.attack)
	e.batch = newBatchState(e)
	return g, nil
}

// record appends the state at the beginning of the SoC's current cycle
// to the golden per-cycle state.
func (g *Golden) record(s *soc.SoC) {
	g.Arch = append(g.Arch, s.Arch())
	g.Regs = append(g.Regs, s.Sim.RegState())
}

// onGolden reports whether the SoC, all 64 lanes of every MPU register
// included, equals the golden state at its current cycle.
func (g *Golden) onGolden(s *soc.SoC) bool {
	c := s.Cycle()
	return c < len(g.Arch) && s.Arch() == g.Arch[c] && s.Sim.RegDiffMask(g.Regs[c]) == 0
}

// stepTo rewinds the SoC to the exact cycle from the latest golden
// checkpoint at or before it, stepping forward.
func (g *Golden) stepTo(s *soc.SoC, cycle int) {
	idx := cycle / g.Interval
	if idx >= len(g.Checkpoints) {
		idx = len(g.Checkpoints) - 1
	}
	for idx > 0 && g.Checkpoints[idx].Cycle > cycle {
		idx--
	}
	s.Restore(g.Checkpoints[idx])
	for s.Cycle() < cycle {
		s.Step()
	}
}

// accessWindow returns the golden accesses issued in [from, to). The
// log is cycle-sorted, so both bounds are binary searches; the returned
// subslice aliases the log and must not be mutated.
func (g *Golden) accessWindow(from, to int) []soc.AccessEvent {
	lo := sort.Search(len(g.Accesses), func(i int) bool { return g.Accesses[i].Cycle >= from })
	hi := sort.Search(len(g.Accesses), func(i int) bool { return g.Accesses[i].Cycle >= to })
	if hi < lo {
		hi = lo
	}
	return g.Accesses[lo:hi]
}

// resumeRTL is the scalar post-injection RTL resume: step until the
// marked access resolves, the core halts, or the bounded horizon
// expires. With the convergence cut enabled, each cycle's state is
// compared against the golden run's state for the same cycle; equality
// means the fault has died out and the run is bit-for-bit back on the
// golden trajectory — whose outcome is known (the attack failed) — so
// the resume stops there. Campaigns and RunBatch resume in lane
// batches and groups instead (resumeBatch, resumeGroup); this loop is
// their oracle.
func (e *Engine) resumeRTL() (resumed int, success bool) {
	g := e.m.golden
	s := e.SoC
	start := s.Cycle()
	limit := g.FinalCycle + resumeMargin
	useCut := !e.DisableConvergenceCut
	for !s.Done() && !s.Marked.Resolved && s.Cycle() < limit {
		if useCut && g.onGolden(s) {
			return s.Cycle() - start, false
		}
		s.Step()
	}
	return s.Cycle() - start, s.AttackSucceeded()
}

// RunOnce executes one fault-attack run for the given sample. RunGolden
// must have been called. rng drives hardening suppression only; the
// sample itself is drawn by the caller.
func (e *Engine) RunOnce(rng *rand.Rand, sample fault.Sample, mode Mode) RunResult {
	g := e.m.golden
	te := g.TargetCycle - sample.T
	e.restoreTo(te)

	// Injection cycle(s): gate-level (or direct register) fault. A
	// multi-cycle technique disturbs consecutive cycles with the same
	// spot; cycles past the target decision cannot change the marked
	// outcome and are clamped.
	cycles := sample.Cycles
	if cycles < 1 || mode == RegisterAttack {
		cycles = 1
	}
	if max := g.TargetCycle - te + 1; cycles > max {
		cycles = max
	}
	flipped := e.flipBuf[:0]
	if cycles > 1 && len(e.seen) > 0 {
		clear(e.seen)
	}
	//hot
	for c := 0; c < cycles; c++ {
		var cycleFlips []netlist.NodeID
		e.SoC.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
			switch mode {
			case GateAttack:
				gates, dists := e.spotIndex().CombWithin(sample.Center, sample.Radius)
				if len(gates) == 0 {
					return nil
				}
				var strike timingsim.Strike
				strike, e.strikeWidths = e.attack.StrikeFrom(sample, gates, dists, e.strikeWidths)
				res := e.Timing.Inject(values, strike)
				cycleFlips = e.applyHardening(rng, res.FlippedRegs)
			case RegisterAttack:
				regs := e.spotIndex().DFFWithin(sample.Center, sample.Radius)
				cycleFlips = e.applyHardening(rng, regs)
			}
			return cycleFlips
		})
		if cycles == 1 {
			// A single injection cycle cannot produce duplicates.
			flipped = append(flipped, cycleFlips...) //alloc-ok (reused scratch buffer)
			break
		}
		for _, r := range cycleFlips {
			if !e.seen[r] {
				if e.seen == nil {
					e.seen = make(map[netlist.NodeID]bool, 16) //alloc-ok (lazy, once per engine)
				}
				e.seen[r] = true
				flipped = append(flipped, r) //alloc-ok (reused scratch buffer)
			}
		}
	}
	e.flipBuf = flipped

	// The classification shortcuts assume a single-cycle disturbance;
	// multi-cycle injections always resolve through RTL (after the
	// masked check).
	if cycles > 1 {
		if len(flipped) == 0 {
			return RunResult{Class: Masked, Path: PathMasked}
		}
		res := RunResult{
			Class: Mixed, Path: PathRTL,
			Flipped: append([]netlist.NodeID(nil), flipped...),
		}
		res.ResumeCycles, res.Success = e.resumeRTL()
		return res
	}

	res, needRTL := e.classifySingle(sample.T, te, flipped)
	// Copy out of the scratch buffer: the result outlives the run
	// (campaign attribution, pattern tracking).
	res.Flipped = slices.Clone(res.Flipped)
	if needRTL {
		// Full RTL resume: run until the marked access resolves (or
		// the run ends some other way — e.g. a spurious trap halts the
		// core).
		res.ResumeCycles, res.Success = e.resumeRTL()
	}
	return res
}

// classifySingle decides a single-cycle injection's outcome from the
// flipped-register set alone, without touching the SoC state: masked,
// analytical memory-type evaluation, or lifetime pruning. When none of
// the shortcut paths apply it returns needRTL=true with Path set to
// PathRTL, and the caller owes the run an RTL resume (scalar resumeRTL,
// or a lane of a batched resume). flipped is the caller's scratch, and
// the returned result's Flipped aliases it (nil when masked): the
// caller copies it out before the scratch is reused. The classification
// itself allocates nothing.
func (e *Engine) classifySingle(t, te int, flipped []netlist.NodeID) (res RunResult, needRTL bool) {
	g := e.m.golden
	switch {
	case len(flipped) == 0:
		res.Class = Masked
		res.Path = PathMasked
		return res, false
	case e.allMemoryType(flipped):
		res.Class = MemoryOnly
	default:
		res.Class = Mixed
	}
	res.Flipped = flipped

	if res.Class == MemoryOnly && t == 0 {
		// The flips latch at the end of the target cycle itself —
		// after the decision. Memory-type state cannot influence it
		// anymore.
		res.Path = PathPruned
		return res, false
	}
	if res.Class == MemoryOnly && e.Analytical != nil && e.Analytical.Covers(flipped) && te > g.SetupEnd {
		res.Path = PathAnalytical
		window := g.accessWindow(te, g.MarkedIssue)
		res.Success = e.Analytical.Outcome(g.Policy, e.SoC.Prog, window, flipped)
		return res, false
	}

	// Lifetime pruning for computation-type-only errors: if no flipped
	// register's error can survive until the target cycle, the attack
	// fails without simulation.
	if res.Class == Mixed && e.Char != nil && t > 0 {
		maxLife := 0.0
		for _, r := range flipped {
			if l := e.Char.Lifetime(r); l > maxLife {
				maxLife = l
			}
		}
		if maxLife < float64(t) {
			res.Path = PathPruned
			return res, false
		}
	}

	res.Path = PathRTL
	return res, true
}

// AttributeSuccess refines the register attribution of a successful
// run: when the flipped set is analytically covered, each flip is
// tested alone, and only the flips that are individually sufficient to
// bypass the policy receive credit (a strike often latches bystander
// bits alongside the one that matters). When no single flip suffices
// (a conjunction) or the set is not analytically covered, the whole
// set is credited.
func (e *Engine) AttributeSuccess(sample fault.Sample, flipped []netlist.NodeID) []netlist.NodeID {
	if e.Analytical == nil || !e.Analytical.Covers(flipped) || e.m == nil {
		return flipped
	}
	g := e.m.golden
	te := g.TargetCycle - sample.T
	window := g.accessWindow(te, g.MarkedIssue)
	var solo []netlist.NodeID
	for _, r := range flipped {
		if e.Analytical.Outcome(g.Policy, e.SoC.Prog, window, []netlist.NodeID{r}) {
			solo = append(solo, r)
		}
	}
	if len(solo) > 0 {
		return solo
	}
	return flipped
}

// allMemoryType reports whether every flipped register is memory-type:
// either characterized as such by the lifetime campaign, or inert state
// outside the responding-signal cones (which can never influence the
// decision and is covered by the analytical model). Without a
// characterization no register is memory-type.
func (e *Engine) allMemoryType(flipped []netlist.NodeID) bool {
	if e.Char == nil {
		return false
	}
	for _, r := range flipped {
		if !e.Char.MemoryType(r) && (e.Analytical == nil || !e.Analytical.Inert(r)) {
			return false
		}
	}
	return true
}

// applyHardening drops flips on hardened registers with probability
// 1 - 1/F. flips is read only (it may be a shared spot set); the
// filtered set is engine scratch, valid until the next call.
func (e *Engine) applyHardening(rng *rand.Rand, flips []netlist.NodeID) []netlist.NodeID {
	if len(e.Hardened) == 0 {
		return flips
	}
	out := e.hardBuf[:0]
	for _, r := range flips {
		if f, ok := e.Hardened[r]; ok && f > 1 {
			if rng.Float64() >= 1/f {
				continue
			}
		}
		out = append(out, r)
	}
	e.hardBuf = out
	return out
}
