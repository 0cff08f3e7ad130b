package montecarlo

import (
	"context"
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
	g := e.golden
	te := g.TargetCycle - sample.T
	// Warm up to the cycle BEFORE the glitched one so its settled
	// values are observable (the glitch capture compares consecutive
	// cycles).
	if te < 1 {
		te = 1
	}
	e.restoreTo(te - 1)

	nl := e.SoC.MPU.Netlist
	prev := make([]bool, nl.NumNodes())
	e.SoC.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
		for i := range prev {
			prev[i] = values(netlist.NodeID(i))
		}
		return nil
	})

	glitchTime := e.Timing.ClockPeriod() - sample.Depth
	var flipped []netlist.NodeID
	e.SoC.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
		flipped = e.Timing.GlitchCapture(
			func(id netlist.NodeID) bool { return prev[id] },
			values, glitchTime)
		flipped = e.applyHardening(rng, flipped)
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

// RunGlitchCampaign estimates the SSF of a clock-glitch attack by plain
// Monte Carlo over the attack's own distribution (the glitch parameter
// space is small enough that pre-characterization-driven sampling is
// unnecessary). Each run folds into the campaign as a sample of weight
// 1 at the draw's timing distance, exactly as a campaign sample does.
// Cancellation via ctx returns the partial campaign accumulated so far
// alongside the context's error.
func (e *Engine) RunGlitchCampaign(ctx context.Context, attack *fault.GlitchAttack, opts CampaignOptions) (*Campaign, error) {
	if e.golden == nil {
		return nil, fmt.Errorf("montecarlo: RunGlitchCampaign before RunGolden")
	}
	if opts.Samples < 1 {
		return nil, fmt.Errorf("montecarlo: %d samples", opts.Samples)
	}
	if attack.TRange > e.golden.TargetCycle-e.golden.SetupEnd {
		return nil, fmt.Errorf("montecarlo: TRange %d reaches into MPU setup", attack.TRange)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	c := emptyCampaign("glitch-random", opts)
	layout := e.patternLayout(opts)
	agg := newProgressAgg(opts.Progress, opts.ProgressEvery, opts.Samples, 1)
	done := ctx.Done()
	for i := 0; i < opts.Samples; i++ {
		select {
		case <-done:
			agg.observe(0, c, true)
			c.Options.Samples = c.Est.N()
			return c, ctx.Err()
		default:
		}
		sample := attack.SampleNominal(rng)
		res := e.RunGlitchOnce(rng, sample)
		e.accumulate(c, &opts, layout, nil, fault.Sample{T: sample.T}, 1, &res)
		agg.observe(0, c, i+1 == opts.Samples)
	}
	return c, nil
}
