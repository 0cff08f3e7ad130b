package codegen

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// -update rewrites the golden fixtures from the current generator
// output (go test ./internal/logicsim/codegen -run Golden -update).
var update = flag.Bool("update", false, "rewrite golden fixtures")

func readCircuit(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	path := filepath.Join("..", "..", "..", "examples", "circuits", name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nl, err := netlist.Read(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return nl
}

// TestGoldenFixtures pins the exact emitted source for the bundled
// example circuits. A diff here means the generator's output changed —
// fine when intentional (rerun with -update and regenerate the MPU
// file via `make gen`), fatal when accidental.
func TestGoldenFixtures(t *testing.T) {
	for _, name := range []string{"mux4", "counter2"} {
		t.Run(name, func(t *testing.T) {
			nl := readCircuit(t, name+".gnl")
			src, err := Generate(nl, Config{
				Package: "golden",
				Prefix:  name + "Gen",
				Source:  name + ".gnl",
			})
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", name+"_evalgen.go.golden")
			if *update {
				if err := os.WriteFile(goldenPath, src, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (rerun with -update to create)", err)
			}
			if string(src) != string(want) {
				t.Errorf("generated source for %s drifted from golden fixture;\nrerun with -update if the change is intentional.\n--- got ---\n%s", name, src)
			}
		})
	}
}

// TestEmitDeterministic pins that two generations of the same design
// are byte-identical — the property the CI drift job relies on.
func TestEmitDeterministic(t *testing.T) {
	nl := readCircuit(t, "mux4.gnl")
	cfg := Config{Package: "p", Prefix: "g", Source: "mux4.gnl"}
	a, err := Generate(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two generations of the same netlist differ")
	}
}

// TestProgramMatchesPlanHash pins the registry-key plumbing: the
// lifted Program carries exactly the plan's hash and node count, the
// values the emitted init() registers under.
func TestProgramMatchesPlanHash(t *testing.T) {
	nl := readCircuit(t, "counter2.gnl")
	plan, err := logicsim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Hash != plan.Hash() {
		t.Errorf("program hash %#x, plan hash %#x", prog.Hash, plan.Hash())
	}
	if prog.NumNodes != nl.NumNodes() {
		t.Errorf("program numNodes %d, netlist %d", prog.NumNodes, nl.NumNodes())
	}
	if prog.Hash == 0 {
		t.Error("hash 0 would collide with the not-yet-computed sentinel")
	}
}

// TestEmitRequiresNames covers the config validation.
func TestEmitRequiresNames(t *testing.T) {
	nl := readCircuit(t, "mux4.gnl")
	if _, err := Generate(nl, Config{Package: "p"}); err == nil {
		t.Error("Generate without Prefix succeeded")
	}
	if _, err := Generate(nl, Config{Prefix: "g"}); err == nil {
		t.Error("Generate without Package succeeded")
	}
}

// checkProgramAgainstInterpreter drives the Program interpreter over
// random values and cross-checks every word against the interpreted
// plan.
func checkProgramAgainstInterpreter(t *testing.T, nl *netlist.Netlist, seed int64) {
	t.Helper()
	plan, err := logicsim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	got := make([]uint64, nl.NumNodes())
	for i := range got {
		got[i] = rng.Uint64()
	}
	want := append([]uint64(nil), got...)
	plan.EvalInterpreted(want)
	prog.Eval(got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d: program %#x, interpreter %#x", i, got[i], want[i])
		}
	}
}

func TestProgramEvalMatchesInterpreter(t *testing.T) {
	dir := filepath.Join("..", "..", "..", "examples", "circuits")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".gnl") {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			checkProgramAgainstInterpreter(t, readCircuit(t, e.Name()), 7)
		})
	}
}

// TestGeneratedSourceMirrorsProgram spot-checks the emitted text
// against the Program it came from: one assignment per op, each
// writing the op's constant node index.
func TestGeneratedSourceMirrorsProgram(t *testing.T) {
	nl := readCircuit(t, "mux4.gnl")
	prog, err := Build(nl)
	if err != nil {
		t.Fatal(err)
	}
	src, err := prog.Emit(Config{Package: "p", Prefix: "g", Source: "mux4.gnl"})
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for _, op := range prog.Ops {
		want := fmt.Sprintf("vals[%d] = ", op.Out)
		if !strings.Contains(text, want) {
			t.Errorf("emitted source is missing the assignment %q", want)
		}
	}
}
