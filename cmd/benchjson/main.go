// Command benchjson maintains the committed performance records:
//
//   - BENCH_runonce.json (-suite runonce, default): ns/op, B/op, and
//     allocs/op for a complete cross-level run (RunOnce), one timed
//     gate-level injection (GateInjection), one RTL cycle (RTLCycle),
//     one pre-characterization of the default MPU (Precharacterize:
//     cones, signatures and correlations, and the lifetime campaign;
//     every iteration characterizes the same MPU, so the netlist's
//     static check, which runs once per MPU, is not in it), one
//     placement of the default MPU (Placement: placement.Place), one
//     framework from scratch (Build: core.Build, which elaborates and
//     checks the MPU and then places it beside the pre-characterization,
//     so on more than one core it reads less than Precharacterize plus
//     Placement plus the elaboration), one evaluation set-up on the
//     built framework
//     (EvaluationSetup: NewEvaluation, whose attack takes the candidate
//     block, with the golden run, plus ImportanceSampler), the set-up
//     every fresh process pays, and one 4-engine pool from scratch
//     (EnginePool: NewEvaluation, NewEnginePool(4), ImportanceSampler
//     and one 2,048-sample gate campaign on each engine in turn, so the
//     first of them builds the gate tables).
//   - BENCH_campaign.json (-suite campaign): per-sample campaign cost
//     (ns/op and samples/sec) of the lane-batched campaign loop on gate
//     attacks with the importance sampler (CampaignBatched), the same
//     on a stack built with generated-evaluator binding off
//     (CampaignBatchedInterp), and on register attacks with the random
//     sampler (CampaignBatchedRegister), where most of a sample's time
//     is the grouped resume of diverged lanes; plus one 64-lane
//     combinational pass of the bundled MPU, interpreted
//     (EvalPassInterp) and generated (EvalPassCodegen), where
//     samples_per_sec counts lanes per second.
//     speedup_codegen_vs_interp is the eval-pass ratio and
//     speedup_codegen_campaign the campaign ratio, which Amdahl
//     dilutes because most of a sample is timed injection and RTL
//     resume, not the combinational pass. Fixed-seed results are
//     bit-identical on both evaluators.
//   - BENCH_convergence.json (-suite convergence): statistical
//     efficiency instead of wall time — for each sampler, the number of
//     samples (n) an adaptive campaign needs before its 95% CI
//     half-width drops to the target. The rows carry no ns_per_op. The
//     runs are deterministic (fixed seed), so the suite is gated at a
//     tight tolerance.
//   - BENCH_stages.json (-suite stages): where a time-to-answer run's
//     CPU time goes. It profiles 40 answers per perfbench workload with
//     perfbench's options (repeated a few passes) and records each
//     stage's share of the profile: draw, spot lookup, latch bound,
//     timed sweep, classify, lane-batched resume, grouped resume,
//     resume ordering, merge and other. It adds the multi-engine rows:
//     each workload's answers through RunAdaptiveParallel on 1 and 2
//     engines, with the median wall time per answer and samples per
//     second. The answers do not depend on the engine count, so both
//     rows time the same answers; the suite exits non-zero when a
//     pass's sample count differs between them. Shares and wall times
//     on a shared host, so the record is not gated.
//
// It uses the same setup as the root go-bench harness, so the numbers
// are comparable to `go test -bench`.
//
// Regression gate: `benchjson -compare -tolerance 0.25 old.json
// new.json` compares two records, prints the per-row percentage
// deltas, and exits non-zero when any row present in old grew by more
// than (1+tolerance)× in new, or is missing from new. Rows with a
// ns_per_op are gated on it; rows without one (the convergence record)
// are gated on their sample count n. The CI bench-smoke step runs it
// against the committed records.
//
// Usage:
//
//	go run ./cmd/benchjson [-suite runonce|campaign|convergence|stages] [-out FILE]
//	go run ./cmd/benchjson -compare [-tolerance T] old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/sampling"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/timingsim"
)

type benchResult struct {
	Name string `json:"name"`
	// NsPerOp is absent from convergence rows, which measure samples
	// (N), not time.
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	BytesPerOp int64   `json:"bytes_per_op"`
	// AllocsPerOp is fractional (allocations over iterations), so a
	// campaign row that allocates once per ten samples reads 0.1, not
	// the 0 of testing's integer quotient. Records written before it
	// hold integers, which load unchanged.
	AllocsPerOp float64 `json:"allocs_per_op"`
	N           int     `json:"n"`
	// SamplesPerSec is reported by the campaign suite only.
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
	// SSF, CIHalfWidth, and ESS are reported by the convergence suite
	// only.
	SSF         float64 `json:"ssf,omitempty"`
	CIHalfWidth float64 `json:"ci_half_width,omitempty"`
	ESS         float64 `json:"ess,omitempty"`
}

// benchFile is one committed record. The speedup fields are written by
// the campaign suite only: generated over interpreted eval pass, and
// generated over interpreted campaign.
type benchFile struct {
	Benchmarks             []benchResult `json:"benchmarks"`
	SpeedupCodegen         float64       `json:"speedup_codegen_vs_interp,omitempty"`
	SpeedupCodegenCampaign float64       `json:"speedup_codegen_campaign,omitempty"`
}

func main() {
	out := flag.String("out", "", "output path (default BENCH_<suite>.json)")
	suite := flag.String("suite", "runonce", "benchmark suite: runonce | campaign | convergence | stages")
	compare := flag.Bool("compare", false, "compare two records (old.json new.json) instead of benchmarking")
	tolerance := flag.Float64("tolerance", 0.25, "compare: allowed fractional growth of ns/op (or of n for rows without ns/op) before failing")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two files: old.json new.json"))
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), *tolerance); err != nil {
			fatal(err)
		}
		return
	}

	path := *out
	if path == "" {
		path = "BENCH_" + *suite + ".json"
	}
	var results []benchResult
	switch *suite {
	case "runonce":
		results = runOnceSuite()
	case "campaign":
		results = campaignSuite()
	case "convergence":
		results = convergenceSuite()
	case "stages":
		writeRecord(path, stagesSuite())
		return
	default:
		fatal(fmt.Errorf("unknown suite %q", *suite))
	}

	file := benchFile{Benchmarks: results}
	if *suite == "campaign" {
		ns := make(map[string]float64, len(results))
		for _, r := range results {
			ns[r.Name] = r.NsPerOp
		}
		file.SpeedupCodegen = ns["EvalPassInterp"] / ns["EvalPassCodegen"]
		file.SpeedupCodegenCampaign = ns["CampaignBatchedInterp"] / ns["CampaignBatched"]
		fmt.Printf("codegen eval speedup: %.2fx\n", file.SpeedupCodegen)
		fmt.Printf("codegen campaign speedup: %.2fx\n", file.SpeedupCodegenCampaign)
	}
	writeRecord(path, file)
}

// writeRecord writes v as indented JSON to path.
func writeRecord(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// record runs one benchmark function and prints + collects its result.
func record(results *[]benchResult, name string, fn func(b *testing.B)) *benchResult {
	res := resultOf(name, testing.Benchmark(fn))
	*results = append(*results, res)
	fmt.Printf("%-22s %12.0f ns/op %8d B/op %9.3f allocs/op (n=%d)\n",
		name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.N)
	return &(*results)[len(*results)-1]
}

// resultOf converts a benchmark result to a record row.
func resultOf(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
		N:           r.N,
	}
}

func runOnceSuite() []benchResult {
	fw, ev := setup()
	var results []benchResult

	record(&results, "RunOnce", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		samples := make([]fault.Sample, 512)
		for i := range samples {
			samples[i] = ev.Attack.SampleNominal(rng)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Engine.RunOnce(rng, samples[i%len(samples)], montecarlo.GateAttack)
		}
	})

	record(&results, "GateInjection", func(b *testing.B) {
		b.ReportAllocs()
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
	})

	record(&results, "RTLCycle", func(b *testing.B) {
		b.ReportAllocs()
		cfg := soc.DefaultConfig()
		s, err := soc.New(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})

	record(&results, "Precharacterize", func(b *testing.B) {
		b.ReportAllocs()
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
	})

	record(&results, "Placement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			placement.Place(fw.MPU.Netlist)
		}
	})

	record(&results, "Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(core.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})

	record(&results, "EvaluationSetup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ev.ImportanceSampler(); err != nil {
				b.Fatal(err)
			}
		}
	})

	record(&results, "EnginePool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
			if err != nil {
				b.Fatal(err)
			}
			pool, err := ev.NewEnginePool(4)
			if err != nil {
				b.Fatal(err)
			}
			sampler, err := ev.ImportanceSampler()
			if err != nil {
				b.Fatal(err)
			}
			for k, eng := range pool.Engines {
				opts := montecarlo.CampaignOptions{Samples: 2048, Mode: montecarlo.GateAttack, Seed: int64(k + 1)}
				if _, err := eng.RunCampaign(context.Background(), sampler, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	return results
}

// campaignSuite measures per-sample campaign cost on the bundled MPU
// workload with the same importance sampler and seed the root go-bench
// harness uses, on the default stack and on a stack built with
// generated-evaluator binding off. The EvalPass rows time one
// 64-lane combinational pass of the MPU, interpreted and generated —
// the work the codegen backend replaces.
func campaignSuite() []benchResult {
	_, ev := setup()
	if !ev.Engine.SoC.Sim.Plan().Generated() {
		fatal(fmt.Errorf("campaign suite: MPU plan did not bind the generated evaluator (stale mpu_evalgen.go? run `go generate ./...`)"))
	}
	prev := logicsim.SetGeneratedEnabled(false)
	_, evInt := setup() // Build and NewEvaluation both inside the disabled window
	logicsim.SetGeneratedEnabled(prev)
	if evInt.Engine.SoC.Sim.Plan().Generated() {
		fatal(fmt.Errorf("campaign suite: interpreted baseline bound a generated evaluator"))
	}

	var results []benchResult
	for _, cfg := range []struct {
		name string
		ev   *core.Evaluation
		mode montecarlo.Mode
	}{
		{"CampaignBatched", ev, montecarlo.GateAttack},
		{"CampaignBatchedInterp", evInt, montecarlo.GateAttack},
		{"CampaignBatchedRegister", ev, montecarlo.RegisterAttack},
	} {
		res := record(&results, cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			// Gate rows use the paper's importance sampler; the register
			// row uses the random sampler, as perfbench's register
			// workload does.
			var sp sampling.Sampler = cfg.ev.RandomSampler()
			if cfg.mode == montecarlo.GateAttack {
				var err error
				if sp, err = cfg.ev.ImportanceSampler(); err != nil {
					b.Fatal(err)
				}
			}
			opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 1, Mode: cfg.mode}
			b.ResetTimer()
			if _, err := cfg.ev.Engine.RunCampaign(b.Context(), sp, opts); err != nil {
				b.Fatal(err)
			}
		})
		res.SamplesPerSec = 1e9 / res.NsPerOp
	}

	for _, cfg := range []struct {
		name string
		sim  *logicsim.Simulator
	}{
		{"EvalPassInterp", evInt.Engine.SoC.Sim},
		{"EvalPassCodegen", ev.Engine.SoC.Sim},
	} {
		sim := cfg.sim.Fork()
		res := record(&results, cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Eval()
			}
		})
		res.SamplesPerSec = 64 * 1e9 / res.NsPerOp
	}
	return results
}

// convergenceSuite measures statistical rather than computational
// efficiency: for each sampler it runs an adaptive campaign until the
// 95% CI half-width of the campaign's active estimator reaches
// convTargetCI, and records how many samples that took. The stopping
// bound EstimatorVariance/eps² ≤ risk with eps = convTargetCI and
// risk = 1/z² is algebraically z·stderr ≤ convTargetCI. Everything is
// fixed-seed deterministic, so the committed record is exactly
// reproducible and gated tightly in CI.
const (
	convTargetCI   = 1e-4
	convMaxSamples = 1 << 19
)

func convergenceSuite() []benchResult {
	_, ev := setup()
	pool, err := ev.NewEnginePool(1)
	if err != nil {
		fatal(err)
	}
	newSampler := func(name string) sampling.Sampler {
		sp, err := ev.Sampler(name, sampling.DefaultAlpha, sampling.DefaultBeta)
		if err != nil {
			fatal(err)
		}
		return sp
	}
	cfgs := []struct {
		name    string
		sampler sampling.Sampler
		adapt   bool
	}{
		{"ConvRandom", newSampler("random"), false},
		{"ConvImportance", newSampler("importance"), false},
		{"ConvImportanceAdapt", newSampler("importance"), true},
		{"ConvStratified", newSampler("stratified"), false},
		{"ConvStratifiedNeyman", newSampler("stratified"), true},
	}
	var results []benchResult
	for _, cfg := range cfgs {
		aopts := montecarlo.AdaptiveOptions{
			Seed:          1,
			Epsilon:       convTargetCI,
			Risk:          1 / (stats.Z95 * stats.Z95),
			MinSamples:    2000,
			MaxSamples:    convMaxSamples,
			CheckEvery:    1000,
			AdaptProposal: cfg.adapt,
		}
		camp, err := pool.RunAdaptive(context.Background(), cfg.sampler, aopts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", cfg.name, err))
		}
		n := camp.Est.N()
		res := benchResult{
			Name:        cfg.name,
			N:           n,
			SSF:         camp.SSF(),
			CIHalfWidth: camp.CIHalfWidth(),
			ESS:         camp.ESS(),
		}
		capped := ""
		if n >= convMaxSamples {
			capped = "  (hit sample cap)"
		}
		fmt.Printf("%-22s %8d samples to CI±%g  ssf=%.4e  ci=%.2e  ess=%.0f%s\n",
			cfg.name, n, convTargetCI, res.SSF, res.CIHalfWidth, res.ESS, capped)
		results = append(results, res)
	}
	return results
}

func setup() (*core.Framework, *core.Evaluation) {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		fatal(err)
	}
	return fw, ev
}

// compareFiles loads two benchmark records and fails when a row of the
// old record regressed beyond the tolerance in the new one, or
// disappeared from it (see compareRecords).
func compareFiles(oldPath, newPath string, tolerance float64) error {
	oldRec, err := loadFile(oldPath)
	if err != nil {
		return err
	}
	newRec, err := loadFile(newPath)
	if err != nil {
		return err
	}
	if !compareRecords(os.Stdout, oldRec, newRec, newPath, tolerance) {
		return fmt.Errorf("benchmark regression beyond %.0f%% tolerance", tolerance*100)
	}
	fmt.Println("compare: ok")
	return nil
}

// compareRecords prints one line per row of old and reports whether
// every row is present in new and grew by at most a factor of
// 1+tolerance. A row is gated on ns_per_op when old has one, and on
// its sample count n otherwise. Rows only present in new are reported
// but not gated.
func compareRecords(w io.Writer, oldRec, newRec *benchFile, newPath string, tolerance float64) bool {
	newBy := make(map[string]benchResult, len(newRec.Benchmarks))
	for _, r := range newRec.Benchmarks {
		newBy[r.Name] = r
	}
	ok := true
	for _, old := range oldRec.Benchmarks {
		cur, found := newBy[old.Name]
		if !found {
			fmt.Fprintf(w, "%-22s MISSING from %s\n", old.Name, newPath)
			ok = false
			continue
		}
		was, now, unit := old.NsPerOp, cur.NsPerOp, "ns/op"
		if was == 0 {
			was, now, unit = float64(old.N), float64(cur.N), "samples"
		}
		status := "ok"
		if now > was*(1+tolerance) {
			status = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-22s %12.0f -> %12.0f %-7s (%+.1f%%, limit +%.0f%%)  %s\n",
			old.Name, was, now, unit, (now/was-1)*100, tolerance*100, status)
		delete(newBy, old.Name)
	}
	for _, r := range newRec.Benchmarks {
		if _, stillNew := newBy[r.Name]; stillNew {
			fmt.Fprintf(w, "%-22s new row, not gated\n", r.Name)
		}
	}
	return ok
}

func loadFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
