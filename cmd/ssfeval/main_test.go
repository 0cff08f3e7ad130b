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

// TestGlitchRejectsParallelAndAdaptive: glitch campaigns run on one
// engine with a fixed sample count, so -parallel above 1 and -adaptive
// are errors in glitch mode.
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
