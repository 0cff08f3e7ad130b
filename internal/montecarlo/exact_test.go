package montecarlo_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sampling"
)

// exactRegisterSSF is the exact SSF of the register attack on the
// engine, by enumeration instead of sampling. A register strike flips
// the registers placed within its radius of its center, so for each
// candidate center the radius range U[R−J, R+J] splits at every
// register's distance from the center into pieces with one flip set
// each. Every (T, center, piece) cell weighs f_T · f_P · (piece length
// / 2J); each distinct (T, flip set) is decided once, by RunOnce at the
// midpoint radius of the first piece that has it. It also returns the
// number of distinct (T, flip set) decided.
func exactRegisterSSF(t *testing.T, eng *montecarlo.Engine, attack *fault.Attack) (ssf float64, decisions int) {
	t.Helper()
	tech := attack.Technique
	lo, hi := tech.Radius-tech.RadiusJitter, tech.Radius+tech.RadiusJitter
	nl := eng.SoC.MPU.Netlist
	rng := rand.New(rand.NewSource(1)) // RunOnce draws only for hardened registers
	type reg struct {
		id netlist.NodeID
		d  float64
	}
	decided := map[string]bool{}
	mass := 0.0
	for _, center := range attack.Candidates {
		var regs []reg
		for _, id := range eng.Place.WithinRadius(center, hi) {
			if nl.Node(id).Type == netlist.DFF {
				regs = append(regs, reg{id, eng.Place.Dist(id, center)})
			}
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i].d < regs[j].d })
		cuts := []float64{lo}
		for _, r := range regs {
			if r.d > cuts[len(cuts)-1] && r.d < hi {
				cuts = append(cuts, r.d)
			}
		}
		cuts = append(cuts, hi)
		for T := range attack.TRange {
			f := attack.Density(fault.Sample{T: T, Center: center})
			mass += f
			for k := 0; k+1 < len(cuts); k++ {
				mid := (cuts[k] + cuts[k+1]) / 2
				var flips []netlist.NodeID
				for _, r := range regs {
					if r.d <= mid {
						flips = append(flips, r.id)
					}
				}
				if len(flips) == 0 {
					continue
				}
				slices.Sort(flips)
				key := fmt.Sprint(T, flips)
				success, ok := decided[key]
				if !ok {
					res := eng.RunOnce(rng, fault.Sample{T: T, Center: center, Radius: mid}, montecarlo.RegisterAttack)
					if !slices.Equal(res.Flipped, flips) {
						t.Fatalf("T %d, center %d, radius %v: RunOnce flipped %v, want %v", T, center, mid, res.Flipped, flips)
					}
					success = res.Success
					decided[key] = success
				}
				if success {
					ssf += f * (cuts[k+1] - cuts[k]) / (hi - lo)
				}
			}
		}
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("f_T·f_P sums to %v over the enumerated cells", mass)
	}
	return ssf, len(decided)
}

// exactRegisterAttackSSF is the exact register-attack SSF of the
// default attack on the bundled MPU.
const exactRegisterAttackSSF = 0.0310122647

// TestExactRegisterSSF checks the register attack against its exact
// SSF. The enumeration gives the same value bit for bit on an engine
// without a characterization or an analytical evaluator and with the
// convergence cut off, which resumes every flip set through RTL to the
// marked access: the analytical path, lifetime pruning and the cut
// decide every cell of this attack exactly. A 200,000-sample campaign
// of the random and of the importance sampler must each lie within 3
// standard errors of it.
func TestExactRegisterSSF(t *testing.T) {
	if raceDetector {
		t.Skip("one goroutine: nothing for the race detector, at 40× the time")
	}
	ev := evaluation(t)
	exact, decisions := exactRegisterSSF(t, ev.Engine, ev.Attack)
	t.Logf("exact register SSF %.10f from %d distinct (T, flip set)", exact, decisions)
	if math.Abs(exact-exactRegisterAttackSSF) > 1e-10 {
		t.Errorf("exact register SSF %.10f, want %.10f", exact, exactRegisterAttackSSF)
	}

	if !testing.Short() {
		rtl, err := ev.Engine.Clone()
		if err != nil {
			t.Fatal(err)
		}
		rtl.Char, rtl.Analytical = nil, nil
		rtl.DisableConvergenceCut()
		if got, _ := exactRegisterSSF(t, rtl, ev.Attack); got != exact {
			t.Errorf("RTL-only enumeration gives %.17g, with the shortcuts %.17g", got, exact)
		}
	}

	importance, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	for _, sampler := range []sampling.Sampler{ev.RandomSampler(), importance} {
		c, err := ev.Engine.RunCampaign(context.Background(), sampler,
			montecarlo.CampaignOptions{Samples: 200000, Seed: 1, Mode: montecarlo.RegisterAttack})
		if err != nil {
			t.Fatal(err)
		}
		z := (c.SSF() - exact) / math.Sqrt(c.EstimatorVariance())
		t.Logf("%s: SSF %.6f ± %.6f, z %+.2f", sampler.Name(), c.SSF(), c.CIHalfWidth(), z)
		if math.Abs(z) > 3 {
			t.Errorf("%s: SSF %v is %.2f standard errors from the exact %v", sampler.Name(), c.SSF(), z, exact)
		}
	}
}
