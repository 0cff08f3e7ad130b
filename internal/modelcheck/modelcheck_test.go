package modelcheck_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/modelcheck"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/soc"
)

// loadBroken parses a deliberately malformed fixture with the unchecked
// reader (the checked one would reject it).
func loadBroken(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	fh, err := os.Open(filepath.Join("testdata", "broken", name))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	n, err := netlist.ReadUnchecked(fh)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return n
}

// distinctIDs returns the sorted set of check IDs present in a report.
func distinctIDs(r *modelcheck.Report) []string {
	set := make(map[string]bool)
	for _, f := range r.Findings {
		set[f.ID] = true
	}
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func TestBrokenFixtures(t *testing.T) {
	cases := []struct {
		file string
		// ids is the exact distinct-ID set the linter must report.
		ids []string
		max modelcheck.Severity
	}{
		// Expressing a combinational cycle in id-ordered gnl necessarily
		// also trips the forward-reference check.
		{"comb-loop.gnl", []string{modelcheck.IDCombLoop, modelcheck.IDCombForwardRef}, modelcheck.Error},
		{"floating-input.gnl", []string{modelcheck.IDFloatingInput}, modelcheck.Warn},
		{"dead-cone.gnl", []string{modelcheck.IDDeadGate}, modelcheck.Warn},
		{"bad-topo-order.gnl", []string{modelcheck.IDCombForwardRef}, modelcheck.Warn},
		{"double-driven-reg.gnl", []string{modelcheck.IDMultiDrivenReg}, modelcheck.Error},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			n := loadBroken(t, tc.file)
			r := modelcheck.CheckNetlist(n)
			got := distinctIDs(r)
			if len(got) != len(tc.ids) {
				t.Fatalf("check IDs = %v, want %v\nreport:\n%s", got, tc.ids, r)
			}
			for i := range got {
				if got[i] != tc.ids[i] {
					t.Fatalf("check IDs = %v, want %v\nreport:\n%s", got, tc.ids, r)
				}
			}
			if max, ok := r.Max(); !ok || max != tc.max {
				t.Fatalf("max severity = %v (ok=%v), want %v", max, ok, tc.max)
			}
		})
	}
}

func TestCombLoopReportsCyclePath(t *testing.T) {
	n := loadBroken(t, "comb-loop.gnl")
	loops := modelcheck.CheckNetlist(n).ByID(modelcheck.IDCombLoop)
	if len(loops) != 1 {
		t.Fatalf("want exactly one cycle finding, got %d", len(loops))
	}
	path := loops[0].Path
	if len(path) < 3 || path[0] != path[len(path)-1] {
		t.Fatalf("cycle path %v is not closed", path)
	}
	// The cycle in the fixture is 2 <-> 3.
	for _, id := range path {
		if id != 2 && id != 3 {
			t.Fatalf("cycle path %v strays outside nodes {2, 3}", path)
		}
	}
}

func TestCheckedReaderRejectsBrokenFixtures(t *testing.T) {
	// Every fixture carrying an Error-severity defect must also be
	// rejected by the validating reader; the Warn-only ones parse.
	rejected := map[string]bool{
		"comb-loop.gnl":         true,
		"bad-topo-order.gnl":    true, // forward refs violate the format contract
		"floating-input.gnl":    false,
		"dead-cone.gnl":         false,
		"double-driven-reg.gnl": false, // duplicate names are legal gnl, a model-level defect
	}
	for file, want := range rejected {
		fh, err := os.Open(filepath.Join("testdata", "broken", file))
		if err != nil {
			t.Fatal(err)
		}
		_, err = netlist.Read(fh)
		fh.Close()
		if got := err != nil; got != want {
			t.Errorf("%s: Read rejected=%v, want %v (err=%v)", file, got, want, err)
		}
	}
}

func TestDanglingRefsSkipGraphChecks(t *testing.T) {
	// A netlist whose fanins point outside the node table must produce
	// NL003 without panicking in the graph traversals.
	r := modelcheck.CheckNetlist(mustReadUnchecked(t, "gnl v1\n0 input\n1 inv 7\nout \"y\" 1\n"))
	if len(r.ByID(modelcheck.IDDanglingRef)) == 0 {
		t.Fatalf("want NL003, got:\n%s", r)
	}
	if r.Count(modelcheck.Error) != len(r.ByID(modelcheck.IDDanglingRef)) {
		t.Fatalf("graph checks should be skipped under dangling refs:\n%s", r)
	}
}

func mustReadUnchecked(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ReadUnchecked(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestVerifyTopoOrderDetectsCorruption(t *testing.T) {
	n := mustReadUnchecked(t, "gnl v1\n0 input\n1 inv 0\n2 inv 1\nout \"y\" 2\n")
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if fs := modelcheck.VerifyTopoOrder(n, order); len(fs) != 0 {
		t.Fatalf("clean order flagged: %v", fs)
	}
	// Swap two dependent nodes: 2 consumes 1.
	bad := append([]netlist.NodeID(nil), order...)
	i1, i2 := -1, -1
	for i, id := range bad {
		switch id {
		case 1:
			i1 = i
		case 2:
			i2 = i
		}
	}
	if i1 < 0 || i2 < 0 {
		t.Fatalf("nodes 1 and 2 missing from order %v", order)
	}
	bad[i1], bad[i2] = bad[i2], bad[i1]
	fs := modelcheck.VerifyTopoOrder(n, bad)
	if len(fs) == 0 {
		t.Fatal("corrupted order not flagged")
	}
	for _, f := range fs {
		if f.ID != modelcheck.IDTopoMismatch {
			t.Fatalf("want %s, got %s", modelcheck.IDTopoMismatch, f.ID)
		}
	}
	// Dropping a node must be flagged too.
	fs = modelcheck.VerifyTopoOrder(n, order[:len(order)-1])
	if len(fs) == 0 {
		t.Fatal("truncated order not flagged")
	}
}

func TestVerifyFanoutsDetectsCorruption(t *testing.T) {
	n := mustReadUnchecked(t, "gnl v1\n0 input\n1 inv 0\n2 inv 1\nout \"y\" 2\n")
	clean := n.Fanouts()
	if fs := modelcheck.VerifyFanouts(n, clean); len(fs) != 0 {
		t.Fatalf("clean fanouts flagged: %v", fs)
	}
	bad := make([][]netlist.NodeID, len(clean))
	for i := range clean {
		bad[i] = append([]netlist.NodeID(nil), clean[i]...)
	}
	bad[0] = append(bad[0], 2) // claim input 0 also feeds node 2
	fs := modelcheck.VerifyFanouts(n, bad)
	if len(fs) == 0 {
		t.Fatal("corrupted fanout table not flagged")
	}
	for _, f := range fs {
		if f.ID != modelcheck.IDFanoutMismatch {
			t.Fatalf("want %s, got %s", modelcheck.IDFanoutMismatch, f.ID)
		}
	}
}

func TestReportErrSeverityFilter(t *testing.T) {
	n := loadBroken(t, "floating-input.gnl") // one Warn finding
	r := modelcheck.CheckNetlist(n)
	if err := r.Err(modelcheck.Error); err != nil {
		t.Fatalf("warn-only report must pass fail-on=error: %v", err)
	}
	if err := r.Err(modelcheck.Warn); err == nil {
		t.Fatal("warn-only report must fail fail-on=warn")
	}
}

func TestParseSeverity(t *testing.T) {
	for in, want := range map[string]modelcheck.Severity{
		"info": modelcheck.Info, "warn": modelcheck.Warn,
		"warning": modelcheck.Warn, "Error": modelcheck.Error,
	} {
		got, err := modelcheck.ParseSeverity(in)
		if err != nil || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := modelcheck.ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity(fatal) must error")
	}
}

// TestSeedDesignIsFindingFree pins the guard contract: the shipped MPU
// model (under every shipped workload) carries no Error-severity
// finding, so enabling the construction-time guard cannot change any
// campaign result.
func TestSeedDesignIsFindingFree(t *testing.T) {
	programs := map[string]*soc.Program{
		"illegal-write": soc.IllegalWriteProgram(8, 0x4000, 0x4fff),
		"illegal-read":  soc.IllegalReadProgram(8, 0x4000, 0x4fff),
		"synthetic":     soc.SyntheticProgram(0x4000, 0x4fff),
	}
	for name, prog := range programs {
		t.Run(name, func(t *testing.T) {
			s, err := soc.New(soc.DefaultConfig(), prog)
			if err != nil {
				t.Fatal(err)
			}
			r := modelcheck.CheckModel(modelcheck.Model{
				Netlist:    s.MPU.Netlist,
				Place:      placement.Place(s.MPU.Netlist),
				Responding: s.MPU.RespondingSignals,
				MaxDepth:   50,
			})
			if r.HasAtLeast(modelcheck.Error) {
				t.Fatalf("seed design has error findings:\n%v", r.Err(modelcheck.Error))
			}
		})
	}
}

func TestCheckPlacementOutOfDie(t *testing.T) {
	n := mustReadUnchecked(t, "gnl v1\n0 input\n1 inv 0\nout \"y\" 1\n")
	p := placement.Place(n)
	if fs := modelcheck.CheckPlacement(n, p); len(fs) != 0 {
		t.Fatalf("legal placement flagged: %v", fs)
	}
}

func TestCheckModelRespondingSignal(t *testing.T) {
	n := mustReadUnchecked(t, "gnl v1\n0 input\n1 inv 0\n2 dff 1 \"r[0]\"\nout \"y\" 2\n")
	r := modelcheck.CheckModel(modelcheck.Model{Netlist: n, Responding: []netlist.NodeID{1}})
	if len(r.ByID(modelcheck.IDRespondingSignal)) == 0 {
		t.Fatalf("non-DFF responding signal not flagged:\n%s", r)
	}
	r = modelcheck.CheckModel(modelcheck.Model{Netlist: n, Responding: []netlist.NodeID{2}})
	if len(r.ByID(modelcheck.IDRespondingSignal)) != 0 {
		t.Fatalf("DFF responding signal flagged:\n%s", r)
	}
}

// TestCheckModelRespondingOutOfRange: a responding id outside the
// netlist is reported as MC003 and never walked, with and without the
// cone-window check, alone or next to a valid register.
func TestCheckModelRespondingOutOfRange(t *testing.T) {
	n := mustReadUnchecked(t, "gnl v1\n0 input \"a\"\n1 dff 0 \"r[0]\"\n")
	for _, resp := range [][]netlist.NodeID{{99}, {-1}, {1, 99}, {-5, 1}} {
		for _, depth := range []int{0, 3} {
			r := modelcheck.CheckModel(modelcheck.Model{Netlist: n, Responding: resp, MaxDepth: depth})
			if len(r.ByID(modelcheck.IDRespondingSignal)) != 1 {
				t.Errorf("responding %v, MaxDepth %d: want one MC003 finding:\n%s", resp, depth, r)
			}
			if len(r.ByID(modelcheck.IDConeEscape)) != 0 {
				t.Errorf("responding %v, MaxDepth %d: cone window checked past a bad id:\n%s", resp, depth, r)
			}
		}
	}
}
