package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// workload is one kind of answer the benchmark asks for repeatedly. Each
// answer is an adaptive SSF campaign that stops at a 95% CI half-width
// of epsilon; the answers of a workload use the fixed seeds
// seedBase .. seedBase+answersPerPass-1, so the sample counts, path
// counts and pooled SSF of a pass are exact and repeat in every run.
// The run's --seed only shuffles the order the answers are asked in.
type workload struct {
	name       string
	mode       montecarlo.Mode
	sampler    string
	epsilon    float64
	checkEvery int
	seedBase   int64
}

const (
	// answersPerPass is the length of a workload's answer list: at
	// least 100, so the p90 has ten answers beyond it.
	answersPerPass = 100
	// minSamples keeps an answer from stopping on an early streak of
	// zero hits (at 2000, one importance answer in 40 stops there with
	// SSF 0 and a zero-width CI).
	minSamples = 10000
	maxSamples = 1 << 21
)

var workloads = []*workload{
	{
		// The paper's primary scenario: gate attack, importance
		// sampler. Mostly masked draws; time goes to drawing, strike
		// construction and timed injection.
		name: "gate_importance", mode: montecarlo.GateAttack, sampler: "importance",
		epsilon: 1e-4, checkEvery: 1000, seedBase: 1000,
	},
	{
		// Register (SEU) attack with the random sampler: no timed
		// injection or strike construction; a fifth of the draws resume
		// RTL, so RTL resume, logic simulation and the analytical path
		// dominate.
		name: "register_random", mode: montecarlo.RegisterAttack, sampler: "random",
		epsilon: 2e-3, checkEvery: 1000, seedBase: 2000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// risk makes the weak-LLN stopping bound Var/eps² <= risk the same as
// z95·stderr <= eps, a 95% CI half-width of eps.
var risk = 1 / (stats.Z95 * stats.Z95)

func (w *workload) adaptive(seed int64) montecarlo.AdaptiveOptions {
	return montecarlo.AdaptiveOptions{
		Mode:       w.mode,
		Seed:       seed,
		Epsilon:    w.epsilon,
		Risk:       risk,
		MinSamples: minSamples,
		MaxSamples: maxSamples,
		CheckEvery: w.checkEvery,
		Batch:      true,
	}
}

// answer is one completed SSF answer.
type answer struct {
	Seed      int64
	Seconds   float64 // raw wall time, request to result
	Samples   int
	SSF, CI   float64
	Successes int
	Paths     [4]int
	RTLCycles int
	Rounds    int
	Failed    string // why the answer counts as failed; "" if it does not
	Wrong     string // why the answer fails the output check; "" if it passes
	// Answers sent to the server only.
	SubmitMs, QueueMs, RunMs float64
}

// judge classifies the answer: failed when it stopped without a single
// success or at the sample cap; wrong when its CI misses the target or
// its SSF is not a finite number.
func (w *workload) judge(a *answer) {
	switch {
	case a.Failed != "":
	case a.Successes == 0:
		a.Failed = "stopped with zero successes"
	case a.Samples >= maxSamples:
		a.Failed = "hit the sample cap"
	}
	switch {
	case math.IsNaN(a.SSF) || math.IsInf(a.SSF, 0):
		a.Wrong = fmt.Sprintf("SSF %v is not finite", a.SSF)
	case !(a.CI <= w.epsilon*(1+1e-9)):
		a.Wrong = fmt.Sprintf("CI half-width %.4g above the target %.4g", a.CI, w.epsilon)
	}
}

// env is an in-process evaluation set up the way a library user sets it
// up: framework, evaluation, a one-engine pool and the sampler.
type env struct {
	fw      *core.Framework
	ev      *core.Evaluation
	pool    *core.EnginePool
	sampler sampling.Sampler
}

func setupEnv(w *workload) (*env, error) {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		return nil, err
	}
	pool, err := ev.NewEnginePool(1)
	if err != nil {
		return nil, err
	}
	return finishEnv(w, fw, ev, pool)
}

func finishEnv(w *workload, fw *core.Framework, ev *core.Evaluation, pool *core.EnginePool) (*env, error) {
	e := &env{fw: fw, ev: ev, pool: pool}
	var err error
	switch w.sampler {
	case "importance":
		e.sampler, err = ev.ImportanceSampler()
	case "random":
		e.sampler = ev.RandomSampler()
	default:
		err = fmt.Errorf("unknown sampler %q", w.sampler)
	}
	return e, err
}

// answer runs one in-process answer on the pool.
func (e *env) answer(ctx context.Context, w *workload, seed int64) (answer, error) {
	t0 := time.Now()
	c, err := e.pool.RunAdaptive(ctx, e.sampler, w.adaptive(seed))
	secs := time.Since(t0).Seconds()
	if err != nil {
		return answer{}, fmt.Errorf("answer seed %d: %w", seed, err)
	}
	a := answer{
		Seed:      seed,
		Seconds:   secs,
		Samples:   c.Est.N(),
		SSF:       c.SSF(),
		CI:        c.CIHalfWidth(),
		Successes: c.Successes,
		Paths:     c.PathCounts,
		RTLCycles: c.RTLCycles,
		Rounds:    (c.Est.N() + w.checkEvery - 1) / w.checkEvery,
	}
	w.judge(&a)
	return a, nil
}
