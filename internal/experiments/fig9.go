package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/report"
	"repro/internal/sampling"
)

// Fig9Strategy is one sampling strategy's campaign outcome.
type Fig9Strategy struct {
	Name        string
	SSF         float64
	Variance    float64
	Successes   int
	Convergence []float64
}

// Fig9Result reproduces Figure 9: the convergence comparison of random
// and importance sampling, and the sample-variance table. The paper's
// third strategy, fanin-cone sampling, has no row: on the bundled MPU
// the candidate block is the decision logic's own cones, so the cone
// restriction keeps 890 of 912 centers at t = 0 and all of them beyond,
// and a cone sampler draws the nominal distribution on all but 0.048% of
// its mass.
type Fig9Result struct {
	Strategies []Fig9Strategy
	// SpeedupImportanceVsRandom compares the strategies by relative
	// variance (variance / SSF²) — the number of samples each needs to
	// reach a given relative standard error. The paper reports raw
	// variances (0.0261 random, 9.7e-5 importance); raw ratios are only
	// comparable when the estimates agree, which at finite sample counts
	// they need not (random sampling may see a handful of successes).
	SpeedupImportanceVsRandom float64
}

// relVar returns variance normalized by the squared estimate.
func (s Fig9Strategy) relVar() float64 {
	if s.SSF == 0 {
		return 0
	}
	return s.Variance / (s.SSF * s.SSF)
}

// Fig9 runs the two-sampler convergence comparison.
func Fig9(c *Context) (*Fig9Result, error) {
	ev, err := c.Eval(core.BenchmarkIllegalWrite)
	if err != nil {
		return nil, err
	}
	imp, err := ev.ImportanceSampler()
	if err != nil {
		return nil, err
	}
	samplers := []sampling.Sampler{ev.RandomSampler(), imp}
	r := &Fig9Result{}
	for _, sp := range samplers {
		opts := c.campaign(montecarlo.GateAttack)
		opts.TrackConvergence = true
		camp, err := ev.Engine.RunCampaign(c.ctx(), sp, opts)
		if err != nil {
			return nil, err
		}
		r.Strategies = append(r.Strategies, Fig9Strategy{
			Name:        sp.Name(),
			SSF:         camp.SSF(),
			Variance:    camp.Variance(),
			Successes:   camp.Successes,
			Convergence: camp.Convergence,
		})
	}
	if v := r.Strategies[1].relVar(); v > 0 && r.Strategies[0].relVar() > 0 {
		r.SpeedupImportanceVsRandom = r.Strategies[0].relVar() / v
	}
	return r, nil
}

// String renders the figure: a coarse convergence trace plus the
// variance table.
func (r *Fig9Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 9(a): running SSF estimate (every N/10 samples)\n")
	for _, s := range r.Strategies {
		fmt.Fprintf(&sb, "  %-11s", s.Name)
		n := len(s.Convergence)
		for i := 1; i <= 10; i++ {
			idx := i*n/10 - 1
			if idx >= 0 && idx < n {
				fmt.Fprintf(&sb, " %9s", report.FormatFloat(s.Convergence[idx]))
			}
		}
		sb.WriteByte('\n')
	}
	t := report.NewTable("Fig 9(b): strategy statistics",
		"strategy", "SSF", "sample variance", "relative variance", "# successes")
	for _, s := range r.Strategies {
		t.Row(s.Name, s.SSF, s.Variance, s.relVar(), s.Successes)
	}
	t.Render(&sb)
	if r.Strategies[0].Variance == 0 {
		sb.WriteString("  variance reduction: n/a (random sampling observed no successes at this sample count)\n")
	} else {
		fmt.Fprintf(&sb, "  convergence speedup (relative-variance ratio): importance %.1fx vs random (paper: 269x)\n",
			r.SpeedupImportanceVsRandom)
	}
	return sb.String()
}
