// Package harden implements the paper's countermeasure study: identify
// the small set of registers that carries almost all of the System
// Security Factor, replace them with soft-error-resilient cell designs
// (references [19, 20] of the paper: ~10x better resilience at ~3x cell
// area), and quantify the SSF reduction against the area overhead.
package harden

import (
	"context"
	"fmt"
	"math"

	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sampling"
)

// Plan is a hardening decision: which registers get resilient cells and
// what the cells cost/buy.
type Plan struct {
	// Regs are the registers to harden.
	Regs []netlist.NodeID
	// Resilience is the upset-rate improvement factor F of the
	// resilient cell: an error that would latch survives with
	// probability 1/F.
	Resilience float64
	// AreaFactor is the hardened cell's area relative to the plain
	// DFF.
	AreaFactor float64
}

// DefaultCellParams returns the published figures the paper uses: 10x
// resilience at 3x cell area.
func DefaultCellParams() (resilience, areaFactor float64) { return 10, 3 }

// FromCritical selects the top-ranked registers covering the given
// share of the success mass (e.g. 0.95).
func FromCritical(ranked []montecarlo.CriticalRegister, share float64) []netlist.NodeID {
	return Top(ranked, montecarlo.CoverageCount(ranked, share))
}

// Top selects the n top-ranked registers, or all of them when fewer
// are ranked.
func Top(ranked []montecarlo.CriticalRegister, n int) []netlist.NodeID {
	n = min(n, len(ranked))
	regs := make([]netlist.NodeID, 0, n)
	for _, cr := range ranked[:n] {
		regs = append(regs, cr.Reg)
	}
	return regs
}

// AreaOverhead returns the fractional area increase of the whole
// netlist when the plan's registers are replaced by hardened cells.
func (p Plan) AreaOverhead(nl *netlist.Netlist) float64 {
	m := netlist.DefaultAreaModel()
	total := m.TotalArea(nl)
	if total == 0 {
		return 0
	}
	extra := (p.AreaFactor - 1) * m.RegArea(nl, p.Regs)
	return extra / total
}

// Apply installs the plan on an engine and returns a function restoring
// the previous hardening map.
func (p Plan) Apply(e *montecarlo.Engine) (restore func()) {
	prev := e.Hardened
	hardened := make(map[netlist.NodeID]float64, len(p.Regs))
	for k, v := range prev {
		hardened[k] = v
	}
	for _, r := range p.Regs {
		hardened[r] = p.Resilience
	}
	e.Hardened = hardened
	return func() { e.Hardened = prev }
}

// Result summarizes a hardening evaluation.
type Result struct {
	// BaseSSF and HardenedSSF are the estimates before/after.
	BaseSSF, HardenedSSF float64
	// Improvement is BaseSSF / HardenedSSF; when the hardened campaign
	// observes no successes it is the 95% lower bound that the function
	// Improvement returns.
	Improvement float64
	// HardenedNoSuccess reports that the hardened campaign saw zero
	// successes, making Improvement a lower bound.
	HardenedNoSuccess bool
	// AreaOverhead is the fractional area increase.
	AreaOverhead float64
	// NumRegs is the number of hardened registers; RegFraction its
	// share of all registers.
	NumRegs     int
	RegFraction float64
}

// Evaluate runs the same campaign with and without the plan and
// reports the security improvement and area cost.
func Evaluate(ctx context.Context, e *montecarlo.Engine, sampler sampling.Sampler, opts montecarlo.CampaignOptions, p Plan) (Result, error) {
	if len(p.Regs) == 0 {
		return Result{}, fmt.Errorf("harden: empty plan")
	}
	base, err := e.RunCampaign(ctx, sampler, opts)
	if err != nil {
		return Result{}, err
	}
	restore := p.Apply(e)
	defer restore()
	hard, err := e.RunCampaign(ctx, sampler, opts)
	if err != nil {
		return Result{}, err
	}
	return Compare(base, hard, sampler, p, e.SoC.MPU.Netlist), nil
}

// Compare scores plan p on netlist nl from a base campaign and the
// hardened campaign run with the same sampler and options: both SSF
// estimates, the improvement, and the plan's area and register cost.
func Compare(base, hard *montecarlo.Campaign, sampler sampling.Sampler, p Plan, nl *netlist.Netlist) Result {
	res := Result{
		BaseSSF:      base.SSF(),
		HardenedSSF:  hard.SSF(),
		AreaOverhead: p.AreaOverhead(nl),
		NumRegs:      len(p.Regs),
	}
	if n := len(nl.Regs()); n > 0 {
		res.RegFraction = float64(len(p.Regs)) / float64(n)
	}
	res.Improvement, res.HardenedNoSuccess = Improvement(res.BaseSSF, res.HardenedSSF, hard.Est.N(), sampler)
	return res
}

// Unresolved reports that the hardened campaign saw no success and its
// lower bound on the improvement is below 1 (or unknown): the campaign
// is no evidence either way.
func (r Result) Unresolved() bool { return r.HardenedNoSuccess && r.Improvement < 1 }

// Improvement returns the security improvement base / hardened of a
// plan whose hardened campaign drew n samples from sampler. When that
// campaign saw no success (hardened 0) it returns, with noSuccess set,
// the 95% lower bound base / ub, where ub = w_max·(1 − 0.05^(1/n)) is
// the one-sided upper bound on an SSF estimated 0 from n draws whose
// weights never exceed w_max = sampling.MaxWeight(sampler). A sampler
// whose largest weight is unknown gives 0, no bound at all, and so does
// a base campaign that saw no success either: neither SSF is resolved.
func Improvement(base, hardened float64, n int, sampler sampling.Sampler) (improvement float64, noSuccess bool) {
	if hardened > 0 {
		return base / hardened, false
	}
	wMax, ok := sampling.MaxWeight(sampler)
	if !ok {
		return 0, true
	}
	return base / (wMax * (1 - math.Pow(0.05, 1/float64(n)))), true
}
