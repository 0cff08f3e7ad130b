// Command ssfeval evaluates the System Security Factor of a benchmark
// under a configurable attack, with a chosen sampling strategy.
//
// Campaigns run in seeded blocks across an engine pool (-parallel N,
// which changes only the speed) and can stop adaptively on the paper's
// weak-LLN convergence bound (-adaptive -eps E). Gate and register campaigns run the lane-batched loop: RTL
// resumes of a window of draws run 64 at a time. Ctrl-C cancels
// a running campaign cleanly and reports the partial results
// accumulated so far. Glitch mode (-mode glitch) is answered exactly
// instead of sampled, so -samples, -seed, -sampler, -parallel and
// -adaptive do not apply to it. -cpuprofile / -memprofile write pprof
// profiles of the campaign for performance investigation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/montecarlo"
	"repro/internal/report"
	"repro/internal/sampling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssfeval:", err)
		os.Exit(1)
	}
}

// run parses the command line and runs one campaign, writing the report
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ssfeval", flag.ExitOnError)
	benchName := fs.String("bench", "write", "benchmark: write | read")
	strategy := fs.String("sampler", core.DefaultSampler, "sampler: "+strings.Join(core.SamplerNames(), " | ")+" (not glitch mode)")
	samples := fs.Int("samples", 20000, "number of Monte Carlo samples (fixed-size campaigns; not glitch mode)")
	seed := fs.Int64("seed", 1, "campaign seed (not glitch mode)")
	tRange := fs.Int("trange", 50, "temporal accuracy range (cycles)")
	blockFrac := fs.Float64("block", 0.125, "candidate sub-block fraction of MPU gates; the block never drops the decision logic (912 of 1,274 gates on the default MPU), so any value below ~0.716 selects the same block")
	mode := fs.String("mode", "gate", "attack mode: gate | register | glitch (answered exactly, without samples)")
	glitchDepth := fs.Float64("glitch-depth", fault.DefaultClockGlitch().Depth, "clock-glitch depth in ps (glitch mode)")
	alpha := fs.Float64("alpha", sampling.DefaultAlpha, "importance-sampling alpha")
	beta := fs.Float64("beta", sampling.DefaultBeta, "importance-sampling beta")
	parallel := fs.Int("parallel", 1, "number of worker engines: blocks run at once (changes only the speed, not the result)")
	adaptive := fs.Bool("adaptive", false, "stop on the weak-LLN convergence bound instead of a fixed sample count")
	adaptProp := fs.Bool("adapt-proposal", false, "adaptive: re-tune the proposal after every block (importance/stratified samplers)")
	eps := fs.Float64("eps", 0.005, "adaptive: absolute accuracy target epsilon")
	def := montecarlo.DefaultAdaptive(0) // the stopping rule's defaults
	risk := fs.Float64("risk", def.Risk, "adaptive: acceptable risk of an eps-deviation")
	maxSamples := fs.Int("max-samples", def.MaxSamples, "adaptive: hard cap on total samples")
	progress := fs.Bool("progress", stderrIsTerminal(), "print a live progress line to stderr")
	codegen := fs.Bool("codegen", true, "bind the generated straight-line evaluator when one matches the compiled plan hash (false = always interpret)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile after the campaign to this file")
	fs.Parse(args)

	bench := core.BenchmarkIllegalWrite
	if *benchName == "read" {
		bench = core.BenchmarkIllegalRead
	} else if *benchName != "write" {
		return fmt.Errorf("unknown benchmark %q", *benchName)
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel %d: need at least one worker engine", *parallel)
	}
	if *maxSamples < 1 {
		return fmt.Errorf("-max-samples %d: need at least one sample", *maxSamples)
	}
	if !*adaptive && *mode != "glitch" && *samples < 1 {
		return fmt.Errorf("-samples %d: need at least one sample", *samples)
	}
	if *mode == "glitch" && (*parallel > 1 || *adaptive) {
		return fmt.Errorf("glitch mode is answered exactly: -parallel and -adaptive do not apply")
	}
	if err := core.CheckSampler(*strategy); err != nil {
		return err
	}
	opts := core.DefaultOptions()
	var gattack *fault.GlitchAttack
	if *mode == "glitch" {
		tech := fault.DefaultClockGlitch()
		tech.Depth, tech.ClockPeriod = *glitchDepth, opts.Delay.ClockPeriod
		var err error
		if gattack, err = fault.NewGlitchAttack("glitch", *tRange, tech); err != nil {
			return err
		}
	}

	// Ctrl-C / SIGTERM cancels the campaign; the partial results are
	// still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	// Plans bind generated evaluators at compile time, so the switch
	// must cover the whole stack construction, not just the campaign.
	logicsim.SetGeneratedEnabled(*codegen)
	if *tRange+1 > opts.Precharac.MaxDepth {
		opts.Precharac.MaxDepth = *tRange + 1
	}
	fw, err := core.Build(opts)
	if err != nil {
		return err
	}
	spec := core.DefaultAttackSpec()
	spec.TRange = *tRange
	spec.BlockFrac = *blockFrac
	ev, err := fw.NewEvaluation(bench, spec)
	if err != nil {
		return err
	}
	evalKind := "interpreted"
	if ev.Engine.SoC.Sim.Plan().Generated() {
		evalKind = "generated (straight-line)"
	}
	fmt.Fprintf(stdout, "framework ready in %v; evaluator: %s; golden run: target cycle %d, final cycle %d\n",
		time.Since(t0).Round(time.Millisecond), evalKind, ev.Golden.TargetCycle, ev.Golden.FinalCycle)

	var prog montecarlo.ProgressFunc
	if *progress {
		prog = func(p montecarlo.Progress) {
			fmt.Fprintf(os.Stderr, "\r%9d samples  ssf=%.3e ± %.1e  paths m/a/p/r %d/%d/%d/%d  %.0f runs/s ",
				p.Done, p.SSF, p.CIHalfWidth,
				p.PathCounts[0], p.PathCounts[1], p.PathCounts[2], p.PathCounts[3],
				p.RunsPerSec)
		}
	}

	var camp *montecarlo.Campaign
	workers := 1
	if *cpuProfile != "" {
		f, perr := os.Create(*cpuProfile)
		if perr != nil {
			return perr
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	t1 := time.Now()
	switch *mode {
	case "gate", "register":
		aMode, _ := montecarlo.ParseMode(*mode)
		sp, serr := ev.Sampler(*strategy, *alpha, *beta)
		if serr != nil {
			return serr
		}
		pool, perr := ev.NewEnginePool(*parallel)
		if perr != nil {
			return perr
		}
		workers = pool.Size()
		// A fixed-size run is -samples in blocks of FixedSizeBlock.
		aopts := montecarlo.AdaptiveOptions{MinSamples: *samples, MaxSamples: *samples, CheckEvery: montecarlo.FixedSizeBlock}
		if *adaptive {
			aopts = montecarlo.DefaultAdaptive(*eps)
			aopts.Risk = *risk
			// The cap is hard: a MinSamples above it would raise it.
			aopts.MaxSamples = *maxSamples
			aopts.MinSamples = min(aopts.MinSamples, *maxSamples)
			aopts.AdaptProposal = *adaptProp
		}
		aopts.Mode, aopts.Seed, aopts.Progress = aMode, *seed, prog
		camp, err = pool.RunAdaptive(ctx, sp, aopts)
	case "glitch":
		ans, gerr := ev.Engine.ExactGlitch(gattack)
		if gerr != nil {
			return gerr
		}
		t := report.NewTable(fmt.Sprintf("Exact SSF: %s benchmark, glitch attacks (%g ± %g ps, TRange %d)",
			bench, *glitchDepth, gattack.Technique.DepthJitter, *tRange), "metric", "value")
		t.Row("SSF", ans.SSF)
		t.Row("depth pieces (latching stale data)", fmt.Sprintf("%d (%d)", ans.Pieces, ans.Stale))
		t.Row("mass masked / mem-only / both", fmt.Sprintf("%.5f / %.5f / %.5f",
			ans.ClassMass[0], ans.ClassMass[1], ans.ClassMass[2]))
		t.Row("mass by path (masked/analytical/pruned/rtl)", fmt.Sprintf("%.5f / %.5f / %.5f / %.5f",
			ans.PathMass[0], ans.PathMass[1], ans.PathMass[2], ans.PathMass[3]))
		t.Row("answered in", time.Since(t1).Round(time.Microsecond))
		t.Render(stdout)
		return writeHeapProfile(*memProfile)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	elapsed := time.Since(t1)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	cancelled := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !(cancelled && camp != nil) {
		return err
	}
	if cancelled {
		fmt.Fprintf(os.Stderr, "ssfeval: cancelled after %d samples; reporting partial results\n", camp.Est.N())
	}

	runs := camp.Est.N()
	title := fmt.Sprintf("SSF evaluation: %s benchmark, %s sampler, %s attacks", bench, camp.SamplerName, *mode)
	if *adaptive {
		title += fmt.Sprintf(" (adaptive eps=%g risk=%g)", *eps, *risk)
	}
	t := report.NewTable(title, "metric", "value")
	t.Row("SSF", camp.SSF())
	t.Row("std. error", camp.Est.StdErr())
	t.Row("95% CI half-width", camp.CIHalfWidth())
	t.Row("sample variance", camp.Variance())
	t.Row("samples", runs)
	if ess := camp.ESS(); ess > 0 {
		t.Row("effective sample size", fmt.Sprintf("%.0f", ess))
	}
	t.Row("worker engines", workers)
	t.Row("successful attacks", camp.Successes)
	t.Row("masked / mem-only / both", fmt.Sprintf("%d / %d / %d",
		camp.ClassCounts[0], camp.ClassCounts[1], camp.ClassCounts[2]))
	t.Row("eval paths (masked/analytical/pruned/rtl)", fmt.Sprintf("%d / %d / %d / %d",
		camp.PathCounts[0], camp.PathCounts[1], camp.PathCounts[2], camp.PathCounts[3]))
	t.Row("RTL cycles simulated", camp.RTLCycles)
	t.Row("throughput", fmt.Sprintf("%.0f runs/s", float64(runs)/elapsed.Seconds()))
	if camp.Strata != nil {
		hits := ""
		for k := 0; k < camp.Strata.K(); k++ {
			if h := camp.Strata.Hits(k); h > 0 {
				if hits != "" {
					hits += "  "
				}
				hits += fmt.Sprintf("t=%d:%d", k, h)
			}
		}
		if hits == "" {
			hits = "(none)"
		}
		t.Row("per-stratum hits", hits)
	}
	t.Render(stdout)
	return writeHeapProfile(*memProfile)
}

// writeHeapProfile writes a heap profile to path; an empty path writes
// nothing.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date heap statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stderrIsTerminal reports whether stderr is an interactive terminal
// (the default for the live progress line).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
