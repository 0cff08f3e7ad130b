// Root benchmark harness: one benchmark per paper table/figure (the
// regeneration cost of each experiment) plus the ablation benches for
// the design choices DESIGN.md calls out. Figure-level results (SSF,
// variance) are attached to the bench output via ReportMetric, so
// `go test -bench=. -benchmem` doubles as the experiment record.
package repro

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/precharac"
	"repro/internal/sampling"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

var (
	benchOnce sync.Once
	benchFW   *core.Framework
	benchEval *core.Evaluation
	benchErr  error
)

func benchSetup(b *testing.B) (*core.Framework, *core.Evaluation) {
	b.Helper()
	benchOnce.Do(func() {
		opts := core.DefaultOptions()
		benchFW, benchErr = core.Build(opts)
		if benchErr != nil {
			return
		}
		benchEval, benchErr = benchFW.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchFW, benchEval
}

// --- Per-figure benchmarks ------------------------------------------------

// BenchmarkFig4Precharacterization measures the one-time system
// pre-characterization (cones + signatures + lifetime campaign) that
// Fig 4's distributions come from.
func BenchmarkFig4Precharacterization(b *testing.B) {
	cfg := soc.DefaultConfig()
	mpu, err := soc.BuildMPU(cfg.MPU)
	if err != nil {
		b.Fatal(err)
	}
	opts := precharac.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := soc.WithMPU(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit), mpu)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := precharac.Characterize(s, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ErrorPatterns measures gate-attack runs with error
// pattern tracking (Fig 7's data source).
func BenchmarkFig7ErrorPatterns(b *testing.B) {
	_, ev := benchSetup(b)
	opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 1, TrackPatterns: true}
	b.ResetTimer()
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(c.Patterns)), "patterns")
}

// BenchmarkFig8SamplerConstruction measures building the importance
// distribution g_{T,P} from the pre-characterization.
func BenchmarkFig8SamplerConstruction(b *testing.B) {
	_, ev := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.ImportanceSampler(); err != nil {
			b.Fatal(err)
		}
	}
}

// The Fig 9 convergence comparison: one bench per strategy, with the
// SSF and sample variance attached as metrics.
func benchFig9(b *testing.B, mk func(*core.Evaluation) (sampling.Sampler, error)) {
	_, ev := benchSetup(b)
	sp, err := mk(ev)
	if err != nil {
		b.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 1}
	b.ResetTimer()
	c, err := ev.Engine.RunCampaign(context.Background(), sp, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(c.SSF()*1e6, "SSFe-6")
	b.ReportMetric(c.Variance()*1e6, "vare-6")
	b.ReportMetric(float64(c.Successes), "succ")
}

func BenchmarkFig9ConvergenceRandom(b *testing.B) {
	benchFig9(b, func(ev *core.Evaluation) (sampling.Sampler, error) { return ev.RandomSampler(), nil })
}

func BenchmarkFig9ConvergenceImportance(b *testing.B) {
	benchFig9(b, (*core.Evaluation).ImportanceSampler)
}

// BenchmarkFig10GateAttackClasses measures the outcome-classification
// campaign behind Fig 10(a).
func BenchmarkFig10GateAttackClasses(b *testing.B) {
	_, ev := benchSetup(b)
	opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 1}
	b.ResetTimer()
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*float64(c.ClassCounts[montecarlo.Masked])/float64(b.N), "masked%")
	b.ReportMetric(100*float64(c.PathCounts[montecarlo.PathRTL])/float64(b.N), "rtl%")
}

// BenchmarkFig10RegisterAttacks measures the register-attack campaign
// behind Fig 10(b).
func BenchmarkFig10RegisterAttacks(b *testing.B) {
	_, ev := benchSetup(b)
	opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 2, Mode: montecarlo.RegisterAttack}
	b.ResetTimer()
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(c.SSF()*1e6, "SSFe-6")
}

// BenchmarkFig11TemporalPoint measures one point of the Fig 11(a)
// sweep: a full evaluation (golden run + campaign) at a 10-cycle
// temporal-accuracy window.
func BenchmarkFig11TemporalPoint(b *testing.B) {
	fw, _ := benchSetup(b)
	spec := core.DefaultAttackSpec()
	spec.TRange = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, spec)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := ev.ImportanceSampler()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ev.Engine.RunCampaign(context.Background(), sp, montecarlo.CampaignOptions{Samples: 500, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalHardening measures the critical-register hardening
// evaluation loop (headline experiment).
func BenchmarkCriticalHardening(b *testing.B) {
	_, ev := benchSetup(b)
	opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 3, Mode: montecarlo.RegisterAttack}
	b.ResetTimer()
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		b.Fatal(err)
	}
	ranked := c.CriticalRegisters()
	b.ReportMetric(float64(len(ranked)), "contributors")
}

// --- Ablation benchmarks ---------------------------------------------------

// BenchmarkSignatureBitParallel vs BenchmarkSignatureScalar: the
// paper's "fast bit-parallel calculation" of switching signatures.
func benchSignature(b *testing.B, parallel bool) {
	cfg := soc.DefaultConfig()
	mpu, err := soc.BuildMPU(cfg.MPU)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := soc.WithMPU(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit), mpu)
		if err != nil {
			b.Fatal(err)
		}
		trace := logicsim.NewTrace(mpu.Netlist, 1024)
		for cyc := 0; cyc < 1024; cyc++ {
			cyc := cyc
			s.StepInject(func(func(id netlist.NodeID) bool) []netlist.NodeID {
				if parallel {
					trace.RecordSources(s.Sim, cyc)
				} else {
					trace.RecordAll(s.Sim, cyc)
				}
				return nil
			})
		}
		if parallel {
			trace.FillCombParallel(s.Sim)
		}
	}
}

func BenchmarkSignatureBitParallel(b *testing.B) { benchSignature(b, true) }
func BenchmarkSignatureScalar(b *testing.B)      { benchSignature(b, false) }

// BenchmarkCheckpointSpacing sweeps the golden-run checkpoint interval:
// denser checkpoints cost memory but shorten the restart warm-up.
func benchCheckpointSpacing(b *testing.B, interval int) {
	fw, _ := benchSetup(b)
	prog, err := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	if err != nil {
		b.Fatal(err)
	}
	attack, err := fw.NewAttack(core.DefaultAttackSpec())
	if err != nil {
		b.Fatal(err)
	}
	s, err := soc.WithMPU(fw.Opts.SoC, prog, fw.MPU)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := montecarlo.New(s, attack, fw.Place, fw.Opts.Delay, fw.Char, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunGolden(interval); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	samples := make([]fault.Sample, 256)
	for i := range samples {
		samples[i] = attack.SampleNominal(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunOnce(rng, samples[i%len(samples)], montecarlo.GateAttack)
	}
}

func BenchmarkCheckpointSpacing8(b *testing.B)   { benchCheckpointSpacing(b, 8) }
func BenchmarkCheckpointSpacing32(b *testing.B)  { benchCheckpointSpacing(b, 32) }
func BenchmarkCheckpointSpacing128(b *testing.B) { benchCheckpointSpacing(b, 128) }

// BenchmarkAnalyticalVsRTL compares deciding memory-type-only outcomes
// analytically against a full RTL resume (the design choice behind the
// memory/computation classification).
func BenchmarkAnalyticalVsRTL(b *testing.B) {
	fw, ev := benchSetup(b)
	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	s2, err := soc.WithMPU(fw.Opts.SoC, prog, fw.MPU)
	if err != nil {
		b.Fatal(err)
	}
	rtlOnly, err := montecarlo.New(s2, ev.Attack, fw.Place, fw.Opts.Delay, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rtlOnly.RunGolden(core.CheckpointInterval); err != nil {
		b.Fatal(err)
	}
	// Collect samples whose outcome is decided analytically.
	rng := rand.New(rand.NewSource(7))
	dummy := rand.New(rand.NewSource(0))
	var memSamples []fault.Sample
	for i := 0; i < 20000 && len(memSamples) < 64; i++ {
		smp := ev.Attack.SampleNominal(rng)
		if ev.Engine.RunOnce(dummy, smp, montecarlo.GateAttack).Path == montecarlo.PathAnalytical {
			memSamples = append(memSamples, smp)
		}
	}
	if len(memSamples) == 0 {
		b.Skip("no analytical samples found")
	}
	b.Run("analytical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev.Engine.RunOnce(dummy, memSamples[i%len(memSamples)], montecarlo.GateAttack)
		}
	})
	b.Run("rtl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtlOnly.RunOnce(dummy, memSamples[i%len(memSamples)], montecarlo.GateAttack)
		}
	})
}

// BenchmarkAblationAlpha sweeps the importance distribution's α and
// reports the resulting estimator variance (design-choice ablation).
func benchAlpha(b *testing.B, alpha float64) {
	_, ev := benchSetup(b)
	sp, err := ev.Sampler("importance", alpha, sampling.DefaultBeta)
	if err != nil {
		b.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 1}
	b.ResetTimer()
	c, err := ev.Engine.RunCampaign(context.Background(), sp, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(c.Variance()*1e6, "vare-6")
}

func BenchmarkAblationAlpha0(b *testing.B)   { benchAlpha(b, 0) }
func BenchmarkAblationAlpha50(b *testing.B)  { benchAlpha(b, 50) }
func BenchmarkAblationAlpha500(b *testing.B) { benchAlpha(b, 500) }

// --- Campaign-throughput benchmarks -----------------------------------------

// benchCampaignThroughput measures end-to-end campaign throughput
// (ns/op is the per-sample cost; samples/s is attached as a metric) on
// the bundled MPU workload.
func benchCampaignThroughput(b *testing.B, mk func(*core.Evaluation) (sampling.Sampler, error), opts montecarlo.CampaignOptions) {
	_, ev := benchSetup(b)
	sp, err := mk(ev)
	if err != nil {
		b.Fatal(err)
	}
	opts.Samples, opts.Seed = b.N, 1
	b.ResetTimer()
	c, err := ev.Engine.RunCampaign(context.Background(), sp, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	b.ReportMetric(c.SSF()*1e6, "SSFe-6")
}

// BenchmarkCampaignBatched is the lane-batched campaign loop on gate
// attacks with the paper's importance sampler.
func BenchmarkCampaignBatched(b *testing.B) {
	benchCampaignThroughput(b, (*core.Evaluation).ImportanceSampler, montecarlo.CampaignOptions{})
}

// BenchmarkCampaignBatchedRegister is the lane-batched campaign loop
// on register attacks with the random sampler: about a fifth of the
// draws resume RTL, and most of those diverge into grouped resumes.
func BenchmarkCampaignBatchedRegister(b *testing.B) {
	random := func(ev *core.Evaluation) (sampling.Sampler, error) { return ev.RandomSampler(), nil }
	benchCampaignThroughput(b, random, montecarlo.CampaignOptions{Mode: montecarlo.RegisterAttack})
}

// --- Microbenchmarks of the substrates --------------------------------------

// BenchmarkRTLCycle measures one SoC co-simulation cycle.
func BenchmarkRTLCycle(b *testing.B) {
	cfg := soc.DefaultConfig()
	s, err := soc.New(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkGateInjection measures one timed gate-level injection cycle.
func BenchmarkGateInjection(b *testing.B) {
	fw, ev := benchSetup(b)
	tsim, err := timingsim.New(fw.MPU.Netlist, fw.Opts.Delay)
	if err != nil {
		b.Fatal(err)
	}
	s := ev.Engine.SoC
	s.Reset()
	for i := 0; i < 100; i++ {
		s.Step()
	}
	s.Sim.Eval()
	values := func(id netlist.NodeID) bool { return s.Sim.Bool(id) }
	rng := rand.New(rand.NewSource(1))
	strikes := make([]timingsim.Strike, 64)
	for i := range strikes {
		smp := ev.Attack.SampleNominal(rng)
		strikes[i] = ev.Attack.Strike(fw.Place, smp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsim.Inject(values, strikes[i%len(strikes)])
	}
}

// BenchmarkRunOnce measures a complete cross-level fault-attack run
// (restore, warm-up, injection, classification, outcome).
func BenchmarkRunOnce(b *testing.B) {
	_, ev := benchSetup(b)
	rng := rand.New(rand.NewSource(1))
	samples := make([]fault.Sample, 512)
	for i := range samples {
		samples[i] = ev.Attack.SampleNominal(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Engine.RunOnce(rng, samples[i%len(samples)], montecarlo.GateAttack)
	}
}
