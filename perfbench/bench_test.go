package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func TestPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if p90 != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", p90, beyond)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has only 9 beyond it and must be refused")
	}
	if p50, err := percentile(xs, 0.5); err != nil || p50 != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v", p50, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}

func TestHostScaleNormalizesToNominal(t *testing.T) {
	// A host twice as slow as nominal doubles both the reference and
	// the answer; the normalized answer is the nominal one.
	scale, err := hostScale([]float64{2 * nominalRefMs, 2.2 * nominalRefMs, 1.9 * nominalRefMs})
	if err != nil {
		t.Fatal(err)
	}
	const nominalAnswer = 0.2
	if got := 2 * nominalAnswer * scale; math.Abs(got-nominalAnswer) > 1e-12 {
		t.Fatalf("normalized answer = %v, want %v", got, nominalAnswer)
	}
	// The raw time follows from the reported one and host.ref_ms.
	if raw := nominalAnswer * (2 * nominalRefMs) / nominalRefMs; math.Abs(raw-nominalAnswer/scale) > 1e-12 {
		t.Fatalf("raw time %v does not follow from host.ref_ms", raw)
	}
	if _, err := hostScale(nil); err == nil {
		t.Fatal("no reference timings must be an error")
	}
	if _, err := hostScale([]float64{0, 0}); err == nil {
		t.Fatal("a zero reference time must be an error")
	}
}

func TestJudgeCountsFailuresAndWrongAnswers(t *testing.T) {
	w := &workload{epsilon: 1e-4}
	cases := []struct {
		name          string
		a             answer
		failed, wrong bool
	}{
		{"good", answer{Samples: 30000, Successes: 90, SSF: 4e-4, CI: 9.9e-5}, false, false},
		{"zero successes", answer{Samples: 10000, Successes: 0, SSF: 0, CI: 0}, true, false},
		{"sample cap", answer{Samples: maxSamples, Successes: 9, SSF: 4e-4, CI: 1e-4}, true, false},
		{"job failed", answer{Failed: "job x ended failed", SSF: 4e-4, CI: 1e-4, Successes: 1}, true, false},
		{"wide CI", answer{Samples: 30000, Successes: 90, SSF: 4e-4, CI: 1.01e-4}, false, true},
		{"NaN SSF", answer{Samples: 30000, Successes: 90, SSF: math.NaN(), CI: 1e-5}, false, true},
		{"no result", answer{Failed: "POST /v1/jobs: 429 Too Many Requests", SSF: math.NaN()}, true, true},
	}
	for _, c := range cases {
		a := c.a
		w.judge(&a)
		if (a.Failed != "") != c.failed || (a.Wrong != "") != c.wrong {
			t.Errorf("%s: failed=%q wrong=%q, want failed %v wrong %v", c.name, a.Failed, a.Wrong, c.failed, c.wrong)
		}
	}
}

func TestAnswerOrderIsAShuffleOfTheFixedList(t *testing.T) {
	w := workloads[0]
	a, b, c := answerOrder(w, 1), answerOrder(w, 1), answerOrder(w, 2)
	if len(a) != answersPerPass {
		t.Fatalf("%d answers, want %d", len(a), answersPerPass)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed must give the same order")
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds should shuffle differently")
	}
	sorted := append([]int64(nil), c...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, s := range sorted {
		if s != w.seedBase+int64(i) {
			t.Fatalf("order holds seed %d at rank %d, want the fixed list", s, i)
		}
	}
}

func TestPooledWeighsAnswersBySamples(t *testing.T) {
	ssf, hw := pooled([]answer{{Samples: 1000, SSF: 1e-3, CI: 2e-4}, {Samples: 3000, SSF: 2e-3, CI: 1e-4}})
	if math.Abs(ssf-1.75e-3) > 1e-15 {
		t.Fatalf("pooled SSF %v, want 1.75e-3", ssf)
	}
	if want := math.Sqrt(0.2*0.2+0.3*0.3) / 4000; math.Abs(hw-want) > 1e-15 {
		t.Fatalf("pooled half-width %v, want %v", hw, want)
	}
}

// The metric names are the benchmark's contract with its readers: the
// lists below are the ones its documentation promises, and the code and
// BENCHMARK.json must print exactly these.
var (
	wantEndToEnd = []string{
		"time_to_answer_p50_s", "time_to_answer_p90_s", "samples_per_s",
		"samples_to_answer_p50", "setup_s", "peak_rss_mb",
	}
	wantPerLayer = []string{
		"soc.build_mpu_ms", "precharac.characterize_ms", "placement.place_ms",
		"montecarlo.golden_ms", "core.pool_ms",
		"sampling.draw_ns", "fault.strike_ns", "timingsim.inject_ns", "timingsim.flipped_regs_mean",
		"montecarlo.batch_ns_per_sample",
		"montecarlo.runonce_ns.masked", "montecarlo.runonce_ns.analytical",
		"montecarlo.runonce_ns.pruned", "montecarlo.runonce_ns.rtl",
		"montecarlo.path_share.masked", "montecarlo.path_share.analytical",
		"montecarlo.path_share.pruned", "montecarlo.path_share.rtl",
		"montecarlo.rtl_cycles_per_sample",
		"soc.step_ns", "soc.restore_ns", "logicsim.eval_ns", "analytical.outcome_ns",
		"montecarlo.rounds_per_answer", "montecarlo.merge_us",
		"montecarlo.snapshot_us", "montecarlo.snapshot_bytes",
		"server.submit_ms", "server.queue_wait_ms", "server.run_ms",
		"server.checkpoints_per_job", "server.http_errors",
		"host.ref_ms", "trace.overhead_ratio", "trace.sample_ns",
	}
)

func TestMetricNamesMatchTheContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []string, code []metricSpec, file []struct{ Name, Unit, Better string }) {
		if len(code) != len(want) || len(file) != len(want) {
			t.Fatalf("%s: %d names wanted, code has %d, BENCHMARK.json %d", kind, len(want), len(code), len(file))
		}
		for i, name := range want {
			if code[i].name != name || file[i].Name != name {
				t.Errorf("%s #%d: want %s, code has %s, BENCHMARK.json %s", kind, i, name, code[i].name, file[i].Name)
			}
			if code[i].unit != file[i].Unit {
				t.Errorf("%s: unit %q in code, %q in BENCHMARK.json", name, code[i].unit, file[i].Unit)
			}
		}
	}
	check("end_to_end", wantEndToEnd, endToEndMetrics, bench.EndToEnd)
	check("per_layer", wantPerLayer, perLayerMetrics, bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload #%d: BENCHMARK.json %s, code %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}

func TestReferenceCoversEveryWorkload(t *testing.T) {
	var refs map[string]reference
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r, ok := refs[w.name]
		if !ok || r.SamplesTotal == 0 || !(r.SSF > 0) || !(r.CIHalfWidth > 0) {
			t.Errorf("%s: reference %+v incomplete", w.name, r)
		}
	}
}
