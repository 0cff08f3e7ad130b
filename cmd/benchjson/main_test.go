package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/timingsim"
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

// TestFractionalAllocs checks that a row records allocations per op as
// a fraction, where testing's integer quotient would read 0, and that
// a record written with integer allocs_per_op still loads.
func TestFractionalAllocs(t *testing.T) {
	r := resultOf("CampaignBatchedRegister", testing.BenchmarkResult{N: 10000, T: time.Millisecond, MemAllocs: 527})
	if r.AllocsPerOp != 0.0527 {
		t.Errorf("allocs_per_op = %v, want 0.0527", r.AllocsPerOp)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"benchmarks": [{"name": "RunOnce", "ns_per_op": 8596, "bytes_per_op": 109, "allocs_per_op": 3, "n": 152737}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Benchmarks[0].AllocsPerOp; got != 3 {
		t.Errorf("integer record loaded allocs_per_op %v, want 3", got)
	}
}

// parkForProfile closes ready and blocks until release is closed, so a
// goroutine profile taken in between holds it on a stack.
func parkForProfile(ready, release chan struct{}) {
	close(ready)
	<-release
}

// TestParseProfile decodes a goroutine profile written by runtime/pprof
// and finds the goroutine parked in parkForProfile.
func TestParseProfile(t *testing.T) {
	ready, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go parkForProfile(ready, release)
	<-ready
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range p.samples {
		if len(s.values) != 1 || s.values[0] < 1 {
			t.Fatalf("sample values %v, want one goroutine count", s.values)
		}
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				found = found || p.names[fn] == "repro/cmd/benchjson.parkForProfile"
			}
		}
	}
	if !found {
		t.Errorf("no stack holds parkForProfile; functions: %v", p.names)
	}
}

// TestStageShares attributes hand-built stacks: each sample goes to the
// innermost stage function on its stack, inlined frames included. The
// frames of the latch bound and of the spot record check take their
// names from the functions themselves, so the stage follows both
// wherever they live.
func TestStageShares(t *testing.T) {
	funcName := func(f any) string { return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name() }
	bound := funcName((*timingsim.CycleTable).MayLatch)
	spot := funcName((*timingsim.CycleTable).SpotMayLatch)
	fn := []string{
		"runtime.memmove",
		"repro/internal/logicsim.(*Simulator).Step",
		mcEngine + "resumeGroup",
		mcEngine + "resumeClasses",
		mcEngine + "resumeSweep",
		"repro/internal/stats.(*Discrete).Sample",
		"repro/internal/sampling.(*Importance).Draw",
		"repro/internal/placement.(*SpotIndex).spotOf",
		"repro/internal/placement.(*SpotIndex).DFFWithin",
		mcEngine + "evalSample",
		"runtime.gcBgMarkWorker",
		"repro/internal/timingsim.(*Simulator).visit",
		"repro/internal/timingsim.(*Simulator).sweep",
		"repro/internal/timingsim.(*CycleTable).classes",
		"repro/internal/timingsim.(*Simulator).InjectPruned",
		bound,
		spot,
		"repro/internal/montecarlo.(*spotTable).mayLatch",
	}
	p := &profile{frames: map[uint64][]uint64{}, names: map[uint64]string{}}
	for i, name := range fn {
		p.names[uint64(i+1)] = name
	}
	// Location ids equal the function ids they hold, except the
	// inlined ones: in location 20, Step is inlined into resumeGroup,
	// in 21 spotOf and DFFWithin are inlined into resumeSweep, in 22
	// the latch bound is inlined into the pruned entry, and in 23 the
	// spot record check and the spot table's check are inlined into the
	// engine's sample path.
	for i := range fn {
		p.frames[uint64(i+1)] = []uint64{uint64(i + 1)}
	}
	p.frames[20] = []uint64{2, 3}
	p.frames[21] = []uint64{8, 9, 5}
	p.frames[22] = []uint64{14, 15}
	p.frames[23] = []uint64{17, 18, 10}
	p.samples = []profSample{
		{locs: []uint64{1, 20, 5}, values: []uint64{3, 50}}, // grouped resume, 3 profile samples
		{locs: []uint64{1, 2, 5}, values: []uint64{1, 20}},  // lane-batched resume
		{locs: []uint64{6, 7, 10}, values: []uint64{1, 10}}, // draw
		{locs: []uint64{21, 4}, values: []uint64{1, 15}},    // spot lookup
		{locs: []uint64{11}, values: []uint64{1, 5}},        // other
		// A kernel frame under the engine, without the pruned entry on
		// the stack, is timed sweep; the latch bound is its own stage.
		{locs: []uint64{1, 12, 13, 10}, values: []uint64{1, 30}}, // timed sweep
		{locs: []uint64{22, 10}, values: []uint64{1, 20}},        // latch bound
		// The exported bound, called from the engine.
		{locs: []uint64{16, 10}, values: []uint64{1, 10}}, // latch bound
		// The spot record check before the spot lookup, inlined or not,
		// and the spot table's own front-bit check.
		{locs: []uint64{23}, values: []uint64{1, 25}},     // latch bound
		{locs: []uint64{17, 10}, values: []uint64{1, 10}}, // latch bound
		{locs: []uint64{18, 10}, values: []uint64{1, 5}},  // latch bound
	}
	want := map[string]float64{
		"grouped resume": 50.0 / 200, "lane-batched resume": 20.0 / 200, "draw": 10.0 / 200,
		"spot lookup": 15.0 / 200, otherStage: 5.0 / 200, "timed sweep": 30.0 / 200, "latch bound": 70.0 / 200,
	}
	// The count is the records' first values, not the record count.
	if n := p.count(); n != len(p.samples)+2 {
		t.Errorf("count %d, want %d", n, len(p.samples)+2)
	}
	shares := p.stageShares()
	if len(shares) != len(stages)+1 || shares[len(shares)-1].Stage != otherStage {
		t.Fatalf("shares %v: want every stage, then other", shares)
	}
	for _, s := range shares {
		if math.Abs(s.Share-want[s.Stage]) > 1e-12 {
			t.Errorf("%s: share %g, want %g", s.Stage, s.Share, want[s.Stage])
		}
	}
}
