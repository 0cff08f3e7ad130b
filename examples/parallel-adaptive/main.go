// Parallel-adaptive: run the importance-sampling campaign across an
// engine pool and let it stop itself on the paper's weak-LLN
// convergence bound, instead of guessing a sample count up front.
//
// It runs the one round loop every multi-engine or adaptive campaign
// runs:
//
//   - an EnginePool clones the SoC over the shared MPU elaboration so
//     each round's blocks of CheckEvery samples run concurrently on
//     independent engines;
//   - EnginePool.RunAdaptive (montecarlo.RunAdaptiveParallel on the
//     pool) checks Pr[|estimate − SSF| ≥ eps] ≤ risk after every block
//     and stops as soon as the bound holds. Blocks are seeded by their
//     index and commit in order, so the pool size changes only the
//     speed. With MinSamples == MaxSamples the same call is a
//     fixed-size campaign.
//
// A progress callback observes the campaign while it runs, and a
// context deadline shows how long campaigns stay cancellable: the
// partial result comes back cleanly instead of being lost.
//
// Run with: go run ./examples/parallel-adaptive
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/montecarlo"
)

func main() {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		log.Fatal(err)
	}
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		log.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	pool, err := ev.NewEnginePool(workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine pool ready: %d workers\n", pool.Size())

	// Stop at ±2e-4 absolute accuracy with 5% risk — the campaign
	// decides how many samples that takes.
	opts := montecarlo.DefaultAdaptive(2e-4)
	opts.MinSamples = 2000
	opts.CheckEvery = 1000
	opts.ProgressEvery = 2000
	opts.Progress = func(p montecarlo.Progress) {
		fmt.Printf("  %6d samples  ssf=%.3e  %5.0f runs/s\n", p.Done, p.SSF, p.RunsPerSec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	camp, err := pool.RunAdaptive(ctx, sampler, opts)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) && camp != nil:
		fmt.Printf("deadline hit — partial campaign of %d samples follows\n", camp.Est.N())
	default:
		log.Fatal(err)
	}

	fmt.Printf("\nconverged after %d samples (bound %.3f ≤ risk %.2f)\n",
		camp.Est.N(), camp.Est.LLNBound(opts.Epsilon), opts.Risk)
	fmt.Printf("SSF = %.3e ± %.1e  (%d successful bypasses)\n",
		camp.SSF(), camp.Est.StdErr(), camp.Successes)
	fmt.Printf("eval paths masked/analytical/pruned/rtl: %d / %d / %d / %d\n",
		camp.PathCounts[0], camp.PathCounts[1], camp.PathCounts[2], camp.PathCounts[3])
}
