package main

import (
	"io"
	"strings"
	"testing"
)

// TestCompareRecords pins the regression rule for both row kinds: a
// timed row is gated on ns_per_op, a convergence row (no ns_per_op) on
// its sample count n, each failing only when it grows by more than the
// tolerance, or when it is missing from the new record.
func TestCompareRecords(t *testing.T) {
	old := &benchFile{Benchmarks: []benchResult{
		{Name: "CampaignBatched", NsPerOp: 4000, N: 100},
		{Name: "ConvImportance", N: 46000},
	}}
	cases := []struct {
		name    string
		timed   benchResult
		samples benchResult
		ok      bool
	}{
		{"unchanged",
			benchResult{Name: "CampaignBatched", NsPerOp: 4000, N: 100},
			benchResult{Name: "ConvImportance", N: 46000}, true},
		{"both within tolerance",
			benchResult{Name: "CampaignBatched", NsPerOp: 4390, N: 100000},
			benchResult{Name: "ConvImportance", N: 48000}, true},
		{"timed row over tolerance",
			benchResult{Name: "CampaignBatched", NsPerOp: 4500, N: 100},
			benchResult{Name: "ConvImportance", N: 46000}, false},
		{"count over tolerance",
			benchResult{Name: "CampaignBatched", NsPerOp: 4000, N: 100},
			benchResult{Name: "ConvImportance", N: 51000}, false},
		{"count shrinks",
			benchResult{Name: "CampaignBatched", NsPerOp: 4000, N: 100},
			benchResult{Name: "ConvImportance", N: 11000}, true},
	}
	for _, tc := range cases {
		cur := &benchFile{Benchmarks: []benchResult{tc.timed, tc.samples}}
		if got := compareRecords(io.Discard, old, cur, "new.json", 0.1); got != tc.ok {
			t.Errorf("%s: compare ok = %v, want %v", tc.name, got, tc.ok)
		}
	}

	var out strings.Builder
	cur := &benchFile{Benchmarks: []benchResult{{Name: "CampaignBatched", NsPerOp: 4000}}}
	if compareRecords(&out, old, cur, "new.json", 0.1) {
		t.Error("a row missing from the new record passed")
	}
	if !strings.Contains(out.String(), "ConvImportance") || !strings.Contains(out.String(), "MISSING") {
		t.Errorf("missing row not reported:\n%s", out.String())
	}

	out.Reset()
	cur = &benchFile{Benchmarks: []benchResult{
		{Name: "CampaignBatched", NsPerOp: 4000},
		{Name: "ConvImportance", N: 46000},
	}}
	compareRecords(&out, old, cur, "new.json", 0.1)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "CampaignBatched") && !strings.Contains(line, "ns/op"):
			t.Errorf("timed row not labelled ns/op: %q", line)
		case strings.HasPrefix(line, "ConvImportance") && !strings.Contains(line, "samples"):
			t.Errorf("count row not labelled samples: %q", line)
		}
	}
}
