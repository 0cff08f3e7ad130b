// Command perfbench is the repository's time-to-answer benchmark. It
// asks the SSF evaluator for answers (adaptive campaigns stopping at a
// target CI half-width) in one of two workloads, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload gate_importance --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// the layers each metric belongs to.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEndMetrics are printed by the untraced run (-trace 0).
var endToEndMetrics = []metricSpec{
	{"time_to_answer_p50_s", "s"},
	{"time_to_answer_p90_s", "s"},
	{"samples_per_s", "1/s"},
	{"samples_to_answer_p50", "count"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are printed by the traced run (-trace 1).
var perLayerMetrics = []metricSpec{
	{"soc.build_mpu_ms", "ms"},
	{"precharac.characterize_ms", "ms"},
	{"placement.place_ms", "ms"},
	{"montecarlo.golden_ms", "ms"},
	{"core.pool_ms", "ms"},
	{"sampling.draw_ns", "ns"},
	{"fault.strike_ns", "ns"},
	{"timingsim.inject_ns", "ns"},
	{"timingsim.flipped_regs_mean", "count"},
	{"montecarlo.batch_ns_per_sample", "ns"},
	{"montecarlo.runonce_ns.masked", "ns"},
	{"montecarlo.runonce_ns.analytical", "ns"},
	{"montecarlo.runonce_ns.pruned", "ns"},
	{"montecarlo.runonce_ns.rtl", "ns"},
	{"montecarlo.path_share.masked", "share"},
	{"montecarlo.path_share.analytical", "share"},
	{"montecarlo.path_share.pruned", "share"},
	{"montecarlo.path_share.rtl", "share"},
	{"montecarlo.rtl_cycles_per_sample", "count"},
	{"soc.step_ns", "ns"},
	{"soc.restore_ns", "ns"},
	{"logicsim.eval_ns", "ns"},
	{"analytical.outcome_ns", "ns"},
	{"montecarlo.rounds_per_answer", "count"},
	{"montecarlo.merge_us", "us"},
	{"montecarlo.snapshot_us", "us"},
	{"montecarlo.snapshot_bytes", "bytes"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.checkpoints_per_job", "count"},
	{"server.http_errors", "count"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.sample_ns", "ns"},
}

// setupRepeats is how many times a run sets the system up from a fresh
// process; setup_s is their median.
const setupRepeats = 21

//go:embed reference.json
var referenceJSON []byte

// reference is a workload's expected output: the exact counts of one
// pass over its answer list, and an SSF from an independent long
// fixed-size campaign to check the pooled answers against.
type reference struct {
	SSF                float64 `json:"ssf"`
	CIHalfWidth        float64 `json:"ci_half_width"`
	SSFSource          string  `json:"ssf_source"`
	SamplesTotal       int     `json:"samples_total"`
	SamplesToAnswerP50 float64 `json:"samples_to_answer_p50"`
	PathCounts         [4]int  `json:"path_counts"`
	RTLCycles          int     `json:"rtl_cycles"`
	Rounds             int     `json:"rounds"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	w          *workload
	seed       int64
	seconds    float64
	serverBin  string
	workdir    string
	order      []int64
	problems   []string // reasons the run's output is not correct
	attempted  int
	failed     int
	failReason map[string]int
}

func (c *config) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: gate_importance | register_random")
	seed := flag.Int64("seed", 1, "input seed: orders the workload's answer list")
	seconds := flag.Float64("seconds", 10, "measure whole passes over the answer list until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	serverBin := flag.String("server", "", "path of the ssfserver binary")
	workdir := flag.String("workdir", ".bench_build", "directory for stores, logs and traces")
	child := flag.Bool("setup-child", false, "set up the workload, print ready, answer once and print the peak RSS (used to time set-up)")
	record := flag.Bool("record", false, "print the workload's reference entry instead of benchmarking")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *child {
		return setupChild(w)
	}
	if *trace == 1 && *serverBin == "" {
		return errors.New("-server is required for a traced run")
	}
	cfg := &config{w: w, seed: *seed, seconds: *seconds, serverBin: *serverBin, workdir: *workdir,
		failReason: map[string]int{}}
	cfg.order = answerOrder(w, *seed)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	if *record {
		return recordReference(cfg)
	}
	var metrics map[string]float64
	var specs []metricSpec
	switch *trace {
	case 0:
		metrics, err = runUntraced(cfg)
		specs = endToEndMetrics
	case 1:
		metrics, err = runTraced(cfg)
		specs = perLayerMetrics
	default:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		return err
	}
	res := result{Correct: len(cfg.problems) == 0, Attempted: cfg.attempted, Failed: cfg.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("%-36s %16.6g %s\n", m.name, v, m.unit)
	}
	for reason, n := range cfg.failReason {
		fmt.Printf("failed answers: %d %s\n", n, reason)
	}
	for _, p := range cfg.problems {
		fmt.Println("output check FAILED:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// answerOrder is the workload's fixed answer list, shuffled by the seed.
func answerOrder(w *workload, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int64, answersPerPass)
	for i, p := range rng.Perm(answersPerPass) {
		order[i] = w.seedBase + int64(p)
	}
	return order
}

// runPasses asks for the answers of the list, in order, in whole passes
// until at least cfg.seconds have passed, timing the host reference
// before every answer and after the last. first holds the first pass.
func runPasses(ctx context.Context, cfg *config, e *env, ref *hostRef, maxPasses int) (all, first []answer, refMs []float64, err error) {
	start := time.Now()
	for pass := 0; pass < maxPasses; pass++ {
		for _, seed := range cfg.order {
			refMs = append(refMs, ref.measure())
			a, err := e.answer(ctx, cfg.w, seed)
			if err != nil {
				return nil, nil, nil, err
			}
			cfg.attempted++
			if a.Failed != "" {
				cfg.failed++
				cfg.failReason[a.Failed]++
			}
			if a.Wrong != "" {
				cfg.problem("answer seed %d: %s", a.Seed, a.Wrong)
			}
			all = append(all, a)
		}
		if time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	refMs = append(refMs, ref.measure())
	return all, all[:len(cfg.order)], refMs, nil
}

// passCounts are the exact counts of one pass over the answer list.
func passCounts(first []answer) reference {
	var r reference
	var samples []float64
	for _, a := range first {
		r.SamplesTotal += a.Samples
		samples = append(samples, float64(a.Samples))
		for i := range r.PathCounts {
			r.PathCounts[i] += a.Paths[i]
		}
		r.RTLCycles += a.RTLCycles
		r.Rounds += a.Rounds
	}
	r.SamplesToAnswerP50 = median(samples)
	return r
}

// checkPass compares one pass with the workload's reference: the counts
// must repeat exactly, and the pooled SSF must agree with the
// independent reference SSF within the combined 95% CI.
func checkPass(cfg *config, first []answer) {
	var refs map[string]reference
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		cfg.problem("reference.json: %v", err)
		return
	}
	want, ok := refs[cfg.w.name]
	if !ok {
		cfg.problem("reference.json has no entry for %s", cfg.w.name)
		return
	}
	got := passCounts(first)
	if got.SamplesTotal != want.SamplesTotal || got.SamplesToAnswerP50 != want.SamplesToAnswerP50 ||
		got.PathCounts != want.PathCounts || got.RTLCycles != want.RTLCycles || got.Rounds != want.Rounds {
		cfg.problem("pass counts differ from the reference: got samples=%d p50=%g paths=%v rtl=%d rounds=%d, want samples=%d p50=%g paths=%v rtl=%d rounds=%d",
			got.SamplesTotal, got.SamplesToAnswerP50, got.PathCounts, got.RTLCycles, got.Rounds,
			want.SamplesTotal, want.SamplesToAnswerP50, want.PathCounts, want.RTLCycles, want.Rounds)
	}
	ssf, hw := pooled(first)
	tol := math.Hypot(hw, want.CIHalfWidth)
	fmt.Printf("pooled SSF %.5e ± %.2e, reference %.5e ± %.2e (%s)\n", ssf, hw, want.SSF, want.CIHalfWidth, want.SSFSource)
	if !(math.Abs(ssf-want.SSF) <= tol) {
		cfg.problem("pooled SSF %.5e ± %.2e disagrees with the reference %.5e ± %.2e", ssf, hw, want.SSF, want.CIHalfWidth)
	}
}

// runUntraced is the end-to-end run.
func runUntraced(cfg *config) (map[string]float64, error) {
	w := cfg.w
	ctx := context.Background()
	ref := newHostRef()
	setups, peak, err := timeSetups(w)
	if err != nil {
		return nil, err
	}
	e, err := setupEnv(w)
	if err != nil {
		return nil, err
	}
	// One answer outside the list lets caches fill and lazy set-up
	// finish before timing.
	if _, err := e.answer(ctx, w, w.seedBase-1); err != nil {
		return nil, err
	}
	all, first, refMs, err := runPasses(ctx, cfg, e, ref, math.MaxInt)
	if err != nil {
		return nil, err
	}
	checkPass(cfg, first)
	scale, err := hostScale(refMs)
	if err != nil {
		return nil, err
	}
	var times, raw, samples []float64
	var totalSamples, totalSecs, totalRaw float64
	for _, a := range all {
		t := a.Seconds * scale
		times = append(times, t)
		raw = append(raw, a.Seconds)
		totalSamples += float64(a.Samples)
		totalSecs += t
		totalRaw += a.Seconds
	}
	for _, a := range first {
		samples = append(samples, float64(a.Samples))
	}
	p90, err := percentile(times, 0.9)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d answers in %d passes; host.ref_ms %.4f; raw p50 %.4f s, raw samples/s %.0f, raw setup %.4f s\n",
		w.name, len(all), len(all)/len(cfg.order), median(refMs), median(raw), totalSamples/totalRaw, median(setups))
	return map[string]float64{
		"time_to_answer_p50_s":  median(times),
		"time_to_answer_p90_s":  p90,
		"samples_per_s":         totalSamples / totalSecs,
		"samples_to_answer_p50": median(samples),
		"setup_s":               median(setups) * scale,
		"peak_rss_mb":           peak,
	}, nil
}

// timeSetups times setupRepeats set-ups, each a child process from
// launch until it is ready to answer, and returns their times and the
// median of their peak RSS. The peak RSS of an answering process is set
// by the garbage of set-up, whose collection timing varies from process
// to process (18–26 MB, now and then 45 MB, on register_random), hence
// the median over processes that each also answer once.
func timeSetups(w *workload) (setups []float64, peakMB float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	var peaks []float64
	for i := 0; i < setupRepeats; i++ {
		d, peak, err := timeSetupChild(self, w)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
		peaks = append(peaks, peak)
	}
	return setups, median(peaks), nil
}

// setupChild is the child side of timeSetupChild: set up, report ready,
// answer once (the warm-up answer) and report the peak RSS.
func setupChild(w *workload) error {
	e, err := setupEnv(w)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if _, err := e.answer(context.Background(), w, w.seedBase-1); err != nil {
		return err
	}
	peak, err := vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	fmt.Println(peak)
	return nil
}

// timeSetupChild launches this binary in -setup-child mode, times it
// from launch until it reports ready, and returns the peak RSS it
// reports after its answer.
func timeSetupChild(self string, w *workload) (time.Duration, float64, error) {
	cmd := exec.Command(self, "-setup-child", "-workload", w.name)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	rd := bufio.NewReader(out)
	ready, rerr := rd.ReadString('\n')
	d := time.Since(t0)
	var peak float64
	var perr error
	if rerr == nil {
		var line string
		line, perr = rd.ReadString('\n')
		if perr == nil {
			peak, perr = strconv.ParseFloat(strings.TrimSpace(line), 64)
		}
	}
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(ready) != "ready" || perr != nil || werr != nil {
		return 0, 0, fmt.Errorf("setup child: %q, read %v, peak %v, exit %v", ready, rerr, perr, werr)
	}
	return d, peak, nil
}

// recordReference prints the workload's reference entry: the counts of
// one pass, and the SSF of a long fixed-size campaign that shares no
// draws with the answers.
func recordReference(cfg *config) error {
	w := cfg.w
	ctx := context.Background()
	e, err := setupEnv(w)
	if err != nil {
		return err
	}
	order := append([]int64(nil), cfg.order...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	cfg.order = order
	_, first, _, err := runPasses(ctx, cfg, e, newHostRef(), 1)
	if err != nil {
		return err
	}
	ref := passCounts(first)
	ssf, hw := pooled(first)
	fmt.Fprintf(os.Stderr, "pooled answers: %.5e ± %.2e\n", ssf, hw)
	ref.SSF, ref.CIHalfWidth, ref.SSFSource, err = longCampaign(w)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(map[string]reference{w.name: ref}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
