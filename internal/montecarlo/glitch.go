package montecarlo

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// RunGlitchOnce executes one clock-glitch attack run: the capture edge
// of the injection cycle Te = Tt − sample.T arrives sample.Depth early,
// and every register whose data path had not settled latches the stale
// previous-cycle value. Downstream classification reuses the standard
// cross-level pipeline (masked / memory-type / RTL resume).
func (e *Engine) RunGlitchOnce(rng *rand.Rand, sample fault.GlitchSample) RunResult {
	var flipped []netlist.NodeID
	te := e.stepGlitched(sample.T, func(prev, cur func(netlist.NodeID) bool) []netlist.NodeID {
		flipped = e.applyHardening(rng, e.Timing.GlitchCapture(prev, cur, sample.Depth))
		return flipped
	})

	// Glitch flips depend on value transitions, not pulse windows;
	// the analytical and pruning shortcuts apply unchanged.
	res, needRTL := e.classifySingle(sample.T, te, flipped)
	res.Flipped = slices.Clone(res.Flipped)
	if needRTL {
		res.ResumeCycles, res.Success = e.resumeRTL()
	}
	return res
}

// stepGlitched restores the golden state at the beginning of the cycle
// before the glitched cycle te = Tt − t and steps through both; latch
// returns te's injected flips from both cycles' fault-free values (the
// glitch capture compares consecutive cycles).
func (e *Engine) stepGlitched(t int, latch func(prev, cur func(netlist.NodeID) bool) []netlist.NodeID) (te int) {
	te = max(e.m.golden.TargetCycle-t, 1)
	e.restoreTo(te - 1)
	prev := make([]bool, e.SoC.MPU.Netlist.NumNodes())
	e.SoC.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
		for i := range prev {
			prev[i] = values(netlist.NodeID(i))
		}
		return nil
	})
	e.SoC.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
		return latch(func(id netlist.NodeID) bool { return prev[id] }, values)
	})
	return te
}

// glitchThresholds returns, in Netlist.Regs order, the depth above
// which a glitch at timing distance t makes each register latch stale
// data (timingsim.GlitchThresholds).
func (e *Engine) glitchThresholds(t int) []float64 {
	var th []float64
	e.stepGlitched(t, func(prev, cur func(netlist.NodeID) bool) []netlist.NodeID {
		th = e.Timing.GlitchThresholds(prev, cur)
		return nil
	})
	return th
}

// GlitchAnswer is the exact answer of a clock-glitch attack: the
// attack's probability mass over its (timing distance, depth piece)
// pairs, split by outcome.
type GlitchAnswer struct {
	// SSF is the mass of the pieces whose run bypasses the policy.
	SSF float64
	// Pieces counts the pieces of positive mass, and Stale those whose
	// glitch latches stale data in some register.
	Pieces, Stale int
	// ClassMass[c] and PathMass[p] are the mass decided in outcome class
	// c and on evaluation path p; each sums to 1.
	ClassMass [Mixed + 1]float64
	PathMass  [PathRTL + 1]float64
}

// ExactGlitch answers a clock-glitch attack exactly. A glitch's flip
// set is a step function of its depth, so for each timing distance one
// capture gives every register's threshold depth, the technique splits
// its depth distribution at them (fault.ClockGlitch.DepthPieces), and
// RunGlitchOnce decides each piece of positive mass at its depth. The
// SSF is the finite sum of the masses of the pieces that succeed.
// Hardened engines are rejected: their suppression is drawn at random.
func (e *Engine) ExactGlitch(attack *fault.GlitchAttack) (*GlitchAnswer, error) {
	if e.m == nil {
		return nil, fmt.Errorf("montecarlo: ExactGlitch before RunGolden")
	}
	if len(e.Hardened) > 0 {
		return nil, fmt.Errorf("montecarlo: ExactGlitch on a hardened engine")
	}
	if g := e.m.golden; attack.TRange > g.TargetCycle-g.SetupEnd {
		return nil, fmt.Errorf("montecarlo: TRange %d reaches into MPU setup", attack.TRange)
	}
	ans := &GlitchAnswer{}
	for t := range attack.TRange {
		for _, p := range attack.Technique.DepthPieces(e.glitchThresholds(t)) {
			res := e.RunGlitchOnce(nil, fault.GlitchSample{T: t, Depth: p.Depth})
			mass := p.Mass / float64(attack.TRange)
			ans.Pieces++
			if res.Class != Masked {
				ans.Stale++
			}
			ans.ClassMass[res.Class] += mass
			ans.PathMass[res.Path] += mass
			if res.Success {
				ans.SSF += mass
			}
		}
	}
	return ans, nil
}
