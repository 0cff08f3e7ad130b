package main

import (
	"strings"
	"testing"
)

// reportRow returns the value column of the report row with the given
// metric name.
func reportRow(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == metric {
			return f[1]
		}
	}
	t.Fatalf("no %q row in:\n%s", metric, out)
	return ""
}

// TestMaxSamplesIsHardCap: an adaptive campaign must stop at
// -max-samples even when the cap is below the default MinSamples,
// which would otherwise raise it.
func TestMaxSamplesIsHardCap(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-adaptive", "-eps", "0.01", "-max-samples", "100", "-progress=false"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := reportRow(t, out.String(), "samples"); got != "100" {
		t.Errorf("ran %s samples, want the cap of 100", got)
	}
}

// TestRejectsEmptyBudgets: a cap below one sample or a pool below one
// engine is an error, not a silent run.
func TestRejectsEmptyBudgets(t *testing.T) {
	for _, args := range [][]string{
		{"-adaptive", "-max-samples", "0"},
		{"-max-samples", "-5"},
		{"-parallel", "0"},
		{"-adaptive", "-parallel", "-1"},
	} {
		var out strings.Builder
		if err := run(append(args, "-samples", "10", "-progress=false"), &out); err == nil {
			t.Errorf("%v: accepted, output:\n%s", args, out.String())
		}
	}
}

// TestRejectsUnknownSampler: -sampler names one of core's samplers;
// any other name, the deleted cone sampler's included, is an error that
// lists them, given before the framework is built.
func TestRejectsUnknownSampler(t *testing.T) {
	for _, name := range []string{"cone", "sobol"} {
		var out strings.Builder
		err := run([]string{"-sampler", name, "-samples", "10", "-progress=false"}, &out)
		if err == nil || !strings.Contains(err.Error(), "random, importance, stratified") {
			t.Errorf("-sampler %s: error %v, output:\n%s", name, err, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("-sampler %s: built the framework first:\n%s", name, out.String())
		}
	}
}

// TestGlitchRejectsParallelAndAdaptive: glitch mode is answered
// exactly, so -parallel above 1 and -adaptive are errors there.
func TestGlitchRejectsParallelAndAdaptive(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "2"},
		{"-adaptive"},
	} {
		var out strings.Builder
		err := run(append([]string{"-mode", "glitch", "-samples", "10", "-progress=false"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), "glitch") {
			t.Errorf("glitch mode with %v: error %v, output:\n%s", args, err, out.String())
		}
	}
}

// TestGlitchIsExact: glitch mode prints the default glitch attack's
// exact answer, the same for any -samples (even 0) and -seed.
func TestGlitchIsExact(t *testing.T) {
	want := strings.Join([]string{
		"Exact SSF: memory-write benchmark, glitch attacks (300 ± 150 ps, TRange 50)",
		"  metric                                       value",
		"  -------------------------------------------  -------------------------------------",
		"  SSF                                          0",
		"  depth pieces (latching stale data)           56 (6)",
		"  mass masked / mem-only / both                0.98600 / 0.00347 / 0.01053",
		"  mass by path (masked/analytical/pruned/rtl)  0.98600 / 0.00200 / 0.00147 / 0.01053",
	}, "\n")
	for _, args := range [][]string{{}, {"-samples", "0", "-seed", "7"}} {
		var out strings.Builder
		if err := run(append([]string{"-mode", "glitch", "-progress=false"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if line != "" && !strings.Contains(line, "framework ready") && !strings.Contains(line, "answered in") {
				kept = append(kept, strings.TrimRight(line, " "))
			}
		}
		if got := strings.Join(kept, "\n"); got != want {
			t.Errorf("%v: output\n%s\nwant\n%s", args, got, want)
		}
	}
}

// TestRejectsBadGlitchInput: a non-finite glitch depth is an error
// given before the framework is built, not an answer.
func TestRejectsBadGlitchInput(t *testing.T) {
	for _, depth := range []string{"NaN", "+Inf", "-Inf"} {
		var out strings.Builder
		err := run([]string{"-mode", "glitch", "-glitch-depth", depth, "-samples", "2000", "-progress=false"}, &out)
		if err == nil || !strings.Contains(err.Error(), "glitch depth") {
			t.Errorf("-glitch-depth %s: error %v, output:\n%s", depth, err, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("-glitch-depth %s: built the framework first:\n%s", depth, out.String())
		}
	}
}

// TestParallelChangesOnlySpeed: -parallel 1 and -parallel 2 report the
// same answer (SSF, CI, samples, outcome and path counts), fixed-size
// and adaptive; only the timing and engine-count rows differ.
func TestParallelChangesOnlySpeed(t *testing.T) {
	answer := func(args []string, parallel string) string {
		t.Helper()
		var out strings.Builder
		if err := run(append(args, "-parallel", parallel, "-progress=false"), &out); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.Contains(line, "framework ready") && !strings.Contains(line, "throughput") &&
				!strings.Contains(line, "worker engines") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	for _, args := range [][]string{
		{"-samples", "6000", "-seed", "42"},
		{"-mode", "register", "-sampler", "random", "-adaptive", "-eps", "0.006", "-seed", "3"},
	} {
		one, two := answer(args, "1"), answer(args, "2")
		if one != two {
			t.Errorf("%v: -parallel 1 and 2 differ:\n%s\n---\n%s", args, one, two)
		}
		if reportRow(t, one, "samples") == "0" {
			t.Errorf("%v: no samples", args)
		}
	}
}
