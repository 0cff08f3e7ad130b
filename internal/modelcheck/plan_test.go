package modelcheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/modelcheck"
	"repro/internal/netlist"
	"repro/internal/soc"
)

// planDesign is the verifier's reference circuit: a two-input gate (the
// specialized opcode path), a three-input gate (the variable-fanin
// path), an inverter, an init-high register, and a primary output, with
// every combinational node consumed.
func planDesign() *netlist.Netlist {
	n := netlist.New(8)
	a := n.AddInput("a")
	b := n.AddInput("b")
	x := n.AddGate(netlist.And, a, b)
	y := n.AddGate(netlist.Or, a, b, x)
	z := n.AddGate(netlist.Inv, y)
	q := n.AddDFF(z, "q", true)
	w := n.AddGate(netlist.Xor, x, q)
	n.AddOutput("w", w)
	return n
}

// planView compiles the design (guard off — the corruption tests are
// about to break the view on purpose) and returns its decoded view.
func planView(t *testing.T, n *netlist.Netlist) modelcheck.PlanView {
	t.Helper()
	p, err := logicsim.CompileWithOptions(n, logicsim.CompileOptions{SkipPlanCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	return p.View()
}

// opFor returns the index of the op computing the given node.
func opFor(t *testing.T, v modelcheck.PlanView, id netlist.NodeID) int {
	t.Helper()
	for i := range v.Ops {
		if v.Ops[i].Out == id {
			return i
		}
	}
	t.Fatalf("no op computes node %d", id)
	return -1
}

func planIDs(r *modelcheck.Report) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range r.Findings {
		if !seen[f.ID] {
			seen[f.ID] = true
			out = append(out, f.ID)
		}
	}
	return out
}

func assertIDs(t *testing.T, r *modelcheck.Report, want ...string) {
	t.Helper()
	got := planIDs(r)
	wantSet := map[string]bool{}
	for _, id := range want {
		wantSet[id] = true
	}
	for _, id := range got {
		if !wantSet[id] {
			t.Errorf("unexpected finding family %s:\n%s", id, r)
		}
	}
	for _, id := range want {
		found := false
		for _, g := range got {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Errorf("missing expected finding %s; got %v:\n%s", id, got, r)
		}
	}
}

// TestCheckPlanCleanOnCompiled pins the baseline: a freshly compiled
// plan of a clean design carries no finding at all.
func TestCheckPlanCleanOnCompiled(t *testing.T) {
	n := planDesign()
	r := modelcheck.CheckPlan(n, planView(t, n))
	if len(r.Findings) != 0 {
		t.Fatalf("compiled plan not finding-free:\n%s", r)
	}
}

// TestCheckPlanBrokenFixtures corrupts the compiled view one invariant
// at a time and requires the exact PL rule to fire.
func TestCheckPlanBrokenFixtures(t *testing.T) {
	n := planDesign()
	// Node ids in construction order: a=0 b=1 x=2 y=3 z=4 q=5 w=6.
	const (
		x = netlist.NodeID(2)
		y = netlist.NodeID(3)
		z = netlist.NodeID(4)
		q = netlist.NodeID(5)
	)
	cases := []struct {
		name    string
		corrupt func(t *testing.T, v *modelcheck.PlanView)
		want    []string
	}{
		{"missing op", func(t *testing.T, v *modelcheck.PlanView) {
			// Dropping x's op leaves x uncovered (PL001) and its
			// readers consuming an undefined slot (PL004).
			i := opFor(t, *v, x)
			v.Ops = append(v.Ops[:i], v.Ops[i+1:]...)
		}, []string{"PL001", "PL004"}},
		{"wrong cell type", func(t *testing.T, v *modelcheck.PlanView) {
			v.Ops[opFor(t, *v, x)].Cell = netlist.Or
		}, []string{"PL002"}},
		{"unknown opcode", func(t *testing.T, v *modelcheck.PlanView) {
			v.Ops[opFor(t, *v, x)].CellOK = false
		}, []string{"PL002"}},
		{"arity encoding mismatch", func(t *testing.T, v *modelcheck.PlanView) {
			v.Ops[opFor(t, *v, x)].Nin = 3
		}, []string{"PL002"}},
		{"non-canonical wide encoding", func(t *testing.T, v *modelcheck.PlanView) {
			op := &v.Ops[opFor(t, *v, x)]
			op.Arity = -1 // variable-fanin And with Nin=2
		}, []string{"PL002"}},
		{"output out of bounds", func(t *testing.T, v *modelcheck.PlanView) {
			v.Ops[opFor(t, *v, x)].Out = 99
		}, []string{"PL003", "PL001", "PL004"}},
		{"pool span out of bounds", func(t *testing.T, v *modelcheck.PlanView) {
			op := &v.Ops[opFor(t, *v, x)]
			op.PoolOff = v.PoolSize
			op.Fanin = nil
		}, []string{"PL003"}},
		{"fanin index out of bounds", func(t *testing.T, v *modelcheck.PlanView) {
			v.Ops[opFor(t, *v, x)].Fanin[0] = -2
		}, []string{"PL003"}},
		{"topo order violated", func(t *testing.T, v *modelcheck.PlanView) {
			// Move z's op in front of y's: z reads y before it exists.
			zi, yi := opFor(t, *v, z), opFor(t, *v, y)
			v.Ops[zi], v.Ops[yi] = v.Ops[yi], v.Ops[zi]
		}, []string{"PL004"}},
		{"write aliasing", func(t *testing.T, v *modelcheck.PlanView) {
			v.Ops = append(v.Ops, v.Ops[opFor(t, *v, x)])
		}, []string{"PL005"}},
		{"op writes register slot", func(t *testing.T, v *modelcheck.PlanView) {
			v.Ops[opFor(t, *v, x)].Out = q
		}, []string{"PL006", "PL001", "PL004"}},
		{"fanin mismatch", func(t *testing.T, v *modelcheck.PlanView) {
			op := &v.Ops[opFor(t, *v, x)]
			op.Fanin[1] = op.Fanin[0]
		}, []string{"PL007"}},
		{"latch source mismatch", func(t *testing.T, v *modelcheck.PlanView) {
			// q's latch now reads x instead of z; z's value becomes
			// unreachable in the plan as a side effect.
			v.RegSrc[0] = x
		}, []string{"PL008", "PL009"}},
		{"latch schedule targets non-register", func(t *testing.T, v *modelcheck.PlanView) {
			v.Regs[0] = x
		}, []string{"PL008"}},
		{"init value lost", func(t *testing.T, v *modelcheck.PlanView) {
			v.InitHi = nil
		}, []string{"PL008"}},
		{"unreachable op", func(t *testing.T, v *modelcheck.PlanView) {
			// Dropping z's op also orphans y: the netlist consumes y
			// (through z) but no remaining plan consumer reads it.
			i := opFor(t, *v, z)
			v.Ops = append(v.Ops[:i], v.Ops[i+1:]...)
		}, []string{"PL001", "PL009"}},
		{"node count mismatch", func(t *testing.T, v *modelcheck.PlanView) {
			// Shrinking the plan's node count pushes the last node's op
			// out of bounds (PL003), which in turn leaves that node
			// uncovered (PL001).
			v.NumNodes--
		}, []string{"PL010", "PL003", "PL001"}},
		{"maxfanin understated", func(t *testing.T, v *modelcheck.PlanView) {
			v.MaxFanin = 2 // y has 3 fanins
		}, []string{"PL010"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := planView(t, n)
			tc.corrupt(t, &v)
			assertIDs(t, modelcheck.CheckPlan(n, v), tc.want...)
		})
	}
}

// TestCheckPlanSeverities pins that the only non-Error rule outcome is
// the non-canonical-encoding note of PL002.
func TestCheckPlanSeverities(t *testing.T) {
	n := planDesign()
	v := planView(t, n)
	v.Ops[opFor(t, v, 2)].Arity = -1
	r := modelcheck.CheckPlan(n, v)
	if r.HasAtLeast(modelcheck.Error) {
		t.Fatalf("non-canonical encoding should not be an error:\n%s", r)
	}
	if r.Count(modelcheck.Warn) == 0 {
		t.Fatalf("expected a PL002 warning:\n%s", r)
	}
}

// TestExampleCircuitPlansClean requires every shipped example circuit
// to compile to a finding-free plan.
func TestExampleCircuitPlansClean(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "circuits")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".gnl") {
			continue
		}
		found++
		t.Run(e.Name(), func(t *testing.T) {
			fh, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer fh.Close()
			n, err := netlist.Read(fh)
			if err != nil {
				t.Fatal(err)
			}
			r := modelcheck.CheckPlan(n, planView(t, n))
			if len(r.Findings) != 0 {
				t.Fatalf("plan not finding-free:\n%s", r)
			}
		})
	}
	if found == 0 {
		t.Fatal("no example circuits found")
	}
}

// TestBuiltinMPUPlanClean requires the built-in MPU's compiled plan to
// be finding-free.
func TestBuiltinMPUPlanClean(t *testing.T) {
	s, err := soc.New(soc.DefaultConfig(), soc.SyntheticProgram(0x4000, 0x4fff))
	if err != nil {
		t.Fatal(err)
	}
	nl := s.MPU.Netlist
	r := modelcheck.CheckPlan(nl, planView(t, nl))
	if len(r.Findings) != 0 {
		t.Fatalf("built-in MPU plan not finding-free:\n%s", r)
	}
}
