// Package core is the framework facade: it wires the synthetic SoC, the
// system pre-characterization, the holistic attack model, the sampling
// strategies, and the cross-level Monte Carlo engine into the
// three-call workflow a user needs:
//
//	fw, _ := core.Build(core.DefaultOptions())
//	ev, _ := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
//	ssf, _ := ev.EvaluateSSF(ctx, ev.ImportanceSampler(), core.DefaultCampaign(20000))
//
// Everything underneath is reachable for finer control: the packages
// under internal/ form the layered implementation (netlist → hdl →
// logicsim/timingsim/placement → soc → precharac/fault → sampling /
// analytical → montecarlo).
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/analytical"
	"repro/internal/fault"
	"repro/internal/modelcheck"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/sampling"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// Benchmark selects one of the built-in attack benchmarks.
type Benchmark int

// Built-in benchmarks.
const (
	// BenchmarkIllegalWrite attempts an unauthorized store into the
	// protected region (the paper's primary scenario).
	BenchmarkIllegalWrite Benchmark = iota
	// BenchmarkIllegalRead attempts an unauthorized load (information
	// leakage).
	BenchmarkIllegalRead
)

// String returns the benchmark's display name.
func (b Benchmark) String() string {
	switch b {
	case BenchmarkIllegalWrite:
		return "memory-write"
	case BenchmarkIllegalRead:
		return "memory-read"
	default:
		return fmt.Sprintf("Benchmark(%d)", int(b))
	}
}

// Options configures framework construction.
type Options struct {
	SoC       soc.Config
	Precharac precharac.Options
	Delay     timingsim.DelayModel
	// WorkIters sizes the benchmarks' legitimate work loop.
	WorkIters uint16
	// CheckpointInterval is the golden-run checkpoint spacing.
	CheckpointInterval int
}

// DefaultOptions returns the configuration used throughout the
// experiments.
func DefaultOptions() Options {
	return Options{
		SoC:                soc.DefaultConfig(),
		Precharac:          precharac.DefaultOptions(),
		Delay:              timingsim.DefaultDelayModel(),
		WorkIters:          20,
		CheckpointInterval: 32,
	}
}

// Framework holds the per-design artifacts: the elaborated MPU, its
// placement, and the pre-characterization. Build once, evaluate many
// benchmarks/attacks against it.
type Framework struct {
	Opts  Options
	MPU   *soc.MPU
	Place *placement.Placement
	Char  *precharac.Characterization
}

// Build elaborates the SoC design, places the MPU netlist, and runs the
// (one-time) system pre-characterization with the synthetic benchmark.
// Once the netlist has passed its static check, the placement, which
// reads nothing else, runs beside the pre-characterization.
func Build(opts Options) (*Framework, error) {
	mpu, err := soc.BuildMPU(opts.SoC.MPU)
	if err != nil {
		return nil, err
	}
	if err := mpu.CheckNetlist().Err(modelcheck.Error); err != nil {
		return nil, fmt.Errorf("core: design rejected by static verification: %w", err)
	}
	fw := &Framework{Opts: opts, MPU: mpu}
	par.Each(2, func() func(int) {
		return func(i int) {
			if i == 1 {
				fw.Place = placement.Place(mpu.Netlist)
				return
			}
			var synth *soc.SoC
			if synth, err = soc.WithMPU(opts.SoC, soc.SyntheticProgram(opts.SoC.DMABase, opts.SoC.DMALimit), mpu); err == nil {
				fw.Char, err = precharac.Characterize(synth, opts.Precharac)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return fw, nil
}

// SecurityTarget returns the natural aim point of a precisely targeted
// attack: the MPU's "legal" gate, whose output feeds both the grant and
// the violation decision — a transient there bypasses the policy
// coherently.
func (f *Framework) SecurityTarget() netlist.NodeID {
	return f.MPU.CriticalGate
}

// CandidateBlock returns a sub-block of the MPU's combinational gates
// covering frac of the gate count (the paper samples P over "a sub-block
// of gates of around 1/8 of MPU identified following [18]"). The block
// is the spatial dilation of the security-decision logic: starting from
// the gates that feed the responding signals within the next couple of
// cycles (unroll indices 0–2 of the pre-characterized cones), it adds
// the placement-nearest remaining gates until the budget is reached —
// i.e. the physical neighbourhood an attacker aiming at the protection
// logic would irradiate. The decision logic is never truncated, so the
// block holds at least those seed gates: on the default MPU they are
// 912 of the 1,274 strikeable gates, and every frac below about 0.716
// selects exactly them.
func (f *Framework) CandidateBlock(frac float64) []netlist.NodeID {
	nl := f.MPU.Netlist
	var comb []netlist.NodeID
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		t := nl.Node(id).Type
		if t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1 {
			comb = append(comb, id)
		}
	}
	if frac >= 1 {
		return comb
	}
	isSeed := make([]bool, nl.NumNodes())
	var seeds []netlist.NodeID
	addSeed := func(g netlist.NodeID) {
		if !isSeed[g] {
			isSeed[g] = true
			seeds = append(seeds, g)
		}
	}
	for i := 0; i <= 2 && i <= f.Char.MaxUnrollIndex(); i++ {
		for _, g := range f.Char.CombLayer(nl, i) {
			addSeed(g)
		}
	}
	if len(seeds) == 0 {
		addSeed(f.SecurityTarget())
	}
	n := max(int(frac*float64(len(comb))), len(seeds), 1) // never truncate the decision logic itself
	// Gates are ordered by their distance to the nearest seed gate. Each
	// node has its own placement cell, so every other gate is at least
	// one pitch from every seed and the seeds come first; only the gates
	// the budget takes past them need a distance.
	var block, rest []netlist.NodeID
	for _, g := range comb {
		if isSeed[g] {
			block = append(block, g)
		} else {
			rest = append(rest, g)
		}
	}
	if extra := min(n-len(block), len(rest)); extra > 0 {
		dist := make([]float64, nl.NumNodes())
		for _, g := range rest {
			best := math.Inf(1)
			for _, s := range seeds {
				best = min(best, f.Place.Dist(g, s))
			}
			dist[g] = best
		}
		slices.SortFunc(rest, func(a, b netlist.NodeID) int {
			if c := cmp.Compare(dist[a], dist[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		block = append(block, rest[:extra]...)
		slices.Sort(block)
	}
	return block
}

// AttackSpec describes the attack scenario at the framework level.
type AttackSpec struct {
	// TRange is the temporal accuracy: t is uniform over [0, TRange).
	TRange int
	// BlockFrac is the fraction of MPU gates the strike center ranges
	// over (spatial targeting).
	BlockFrac float64
	// Technique holds the radiation parameters.
	Technique fault.Radiation
}

// DefaultAttackSpec matches the paper's experimental setup: a 50-cycle
// timing window and a sub-block fraction of 1/8 of the MPU, which
// CandidateBlock raises to the decision logic it never truncates.
func DefaultAttackSpec() AttackSpec {
	return AttackSpec{
		TRange:    50,
		BlockFrac: 0.125,
		Technique: fault.DefaultRadiation(),
	}
}

// NewAttack instantiates the nominal attack distribution f_{T,P}.
func (f *Framework) NewAttack(spec AttackSpec) (*fault.Attack, error) {
	return fault.NewAttack(
		fmt.Sprintf("radiation-t%d-b%.3f", spec.TRange, spec.BlockFrac),
		spec.TRange, spec.Technique, f.CandidateBlock(spec.BlockFrac), nil)
}

// Evaluation couples a benchmark with an attack model: it owns the SoC
// instance, the Monte Carlo engine, and the golden run.
type Evaluation struct {
	Framework *Framework
	Program   *soc.Program
	Attack    *fault.Attack
	Engine    *montecarlo.Engine
	Golden    *montecarlo.Golden
}

// BenchmarkProgram builds one of the built-in benchmarks under the
// framework's configuration.
func (f *Framework) BenchmarkProgram(b Benchmark) (*soc.Program, error) {
	cfg := f.Opts.SoC
	switch b {
	case BenchmarkIllegalWrite:
		return soc.IllegalWriteProgram(f.Opts.WorkIters, cfg.DMABase, cfg.DMALimit), nil
	case BenchmarkIllegalRead:
		return soc.IllegalReadProgram(f.Opts.WorkIters, cfg.DMABase, cfg.DMALimit), nil
	default:
		return nil, fmt.Errorf("core: unknown benchmark %v", b)
	}
}

// NewEvaluation prepares an SSF evaluation of the benchmark under the
// attack spec: builds the SoC, the analytical evaluator, the engine,
// and performs the golden run.
func (f *Framework) NewEvaluation(b Benchmark, spec AttackSpec) (*Evaluation, error) {
	prog, err := f.BenchmarkProgram(b)
	if err != nil {
		return nil, err
	}
	return f.NewEvaluationProgram(prog, spec)
}

// NewEvaluationProgram is NewEvaluation for a user-supplied program.
// The program must contain exactly one marked access and declare its
// metadata (Illegal, PreAttack).
func (f *Framework) NewEvaluationProgram(prog *soc.Program, spec AttackSpec) (*Evaluation, error) {
	attack, err := f.NewAttack(spec)
	if err != nil {
		return nil, err
	}
	return f.NewEvaluationAttack(prog, attack)
}

// NewEvaluationAttack prepares an evaluation for a fully custom attack
// distribution (e.g. concentrated spatial targeting).
func (f *Framework) NewEvaluationAttack(prog *soc.Program, attack *fault.Attack) (*Evaluation, error) {
	s, err := soc.WithMPU(f.Opts.SoC, prog, f.MPU)
	if err != nil {
		return nil, err
	}
	eval, err := analytical.New(f.MPU)
	if err != nil {
		return nil, err
	}
	engine, err := montecarlo.New(s, attack, f.Place, f.Opts.Delay, f.Char, eval)
	if err != nil {
		return nil, err
	}
	golden, err := engine.RunGolden(f.Opts.CheckpointInterval)
	if err != nil {
		return nil, err
	}
	return &Evaluation{
		Framework: f,
		Program:   prog,
		Attack:    attack,
		Engine:    engine,
		Golden:    golden,
	}, nil
}

// RandomSampler returns the baseline sampler (draws from f_{T,P}).
func (e *Evaluation) RandomSampler() sampling.Sampler {
	return &sampling.Random{Attack: e.Attack}
}

// ConeSampler returns the fanin/fanout-cone-restricted sampler.
func (e *Evaluation) ConeSampler() (sampling.Sampler, error) {
	return sampling.NewCone(e.Attack, e.Framework.Char, e.Framework.MPU.Netlist, e.Framework.Place)
}

// ImportanceSampler returns the paper's pre-characterization-driven
// sampler with default α/β.
func (e *Evaluation) ImportanceSampler() (sampling.Sampler, error) {
	return e.ImportanceSamplerAB(sampling.DefaultAlpha, sampling.DefaultBeta)
}

// ImportanceSamplerAB returns the importance sampler with explicit α/β.
func (e *Evaluation) ImportanceSamplerAB(alpha, beta float64) (sampling.Sampler, error) {
	return sampling.NewImportance(e.Attack, e.Framework.Char, e.Framework.MPU.Netlist, e.Framework.Place, alpha, beta)
}

// StratifiedSampler returns the variance-reduction sampler that
// allocates draws deterministically across timing-distance strata on
// top of the importance proposal; campaigns using it report the
// post-stratified estimator.
func (e *Evaluation) StratifiedSampler() (sampling.Sampler, error) {
	im, err := sampling.NewImportance(e.Attack, e.Framework.Char, e.Framework.MPU.Netlist, e.Framework.Place, sampling.DefaultAlpha, sampling.DefaultBeta)
	if err != nil {
		return nil, err
	}
	return sampling.NewStratified(im)
}

// DefaultCampaign returns campaign options with convergence tracking on.
func DefaultCampaign(samples int) montecarlo.CampaignOptions {
	return montecarlo.CampaignOptions{
		Samples:          samples,
		Mode:             montecarlo.GateAttack,
		Seed:             1,
		TrackConvergence: true,
	}
}

// EvaluateSSF runs a campaign and returns it. The context cancels or
// deadlines the campaign; on cancellation the partial campaign is
// returned alongside the context's error.
func (e *Evaluation) EvaluateSSF(ctx context.Context, sampler sampling.Sampler, opts montecarlo.CampaignOptions) (*montecarlo.Campaign, error) {
	return e.Engine.RunCampaign(ctx, sampler, opts)
}

// CloneEngines builds n independent engines over the evaluation's
// engine (montecarlo.Engine.Clone): each has its own SoC instance and
// simulator forks, and all share the evaluation's golden run, window
// snapshots and gate tables, which none of them writes. Use with
// montecarlo.RunAdaptiveParallel.
func (e *Evaluation) CloneEngines(n int) ([]*montecarlo.Engine, error) {
	out := make([]*montecarlo.Engine, 0, n)
	for i := 0; i < n; i++ {
		eng, err := e.Engine.Clone()
		if err != nil {
			return nil, err
		}
		out = append(out, eng)
	}
	return out, nil
}

// EnginePool is a reusable set of engines over one evaluation: engine
// 0 is the evaluation's own engine, the rest are its clones, which
// share the immutable MPU elaboration, placement, pre-characterization
// and the evaluation's golden run and window tables. Build the pool
// once (a clone costs a SoC and two simulator forks, no golden run) and
// run as many campaigns over it as needed: RunAdaptive, or
// montecarlo.RunAdaptiveParallel on Engines (a fixed-size campaign is
// one with MinSamples == MaxSamples). The pool runs one campaign at a
// time; the engines themselves are not safe for concurrent use outside
// the round loop, which runs at most one block per engine at a time.
type EnginePool struct {
	Evaluation *Evaluation
	Engines    []*montecarlo.Engine
}

// NewEnginePool builds a pool of the given size (minimum 1). The
// evaluation's existing engine is the first pool member and the other
// n-1 are its clones.
func (e *Evaluation) NewEnginePool(workers int) (*EnginePool, error) {
	if workers < 1 {
		workers = 1
	}
	engines := []*montecarlo.Engine{e.Engine}
	if workers > 1 {
		clones, err := e.CloneEngines(workers - 1)
		if err != nil {
			return nil, err
		}
		engines = append(engines, clones...)
	}
	return &EnginePool{Evaluation: e, Engines: engines}, nil
}

// Size returns the number of engines in the pool.
func (p *EnginePool) Size() int { return len(p.Engines) }

// RunAdaptive runs an answer across the pool, stopping on the weak-LLN
// bound (montecarlo.RunAdaptiveParallel); the answer is the same on
// every pool size.
func (p *EnginePool) RunAdaptive(ctx context.Context, sampler sampling.Sampler, opts montecarlo.AdaptiveOptions) (*montecarlo.Campaign, error) {
	return montecarlo.RunAdaptiveParallel(ctx, p.Engines, sampler, opts)
}
