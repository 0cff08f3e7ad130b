package codegen

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// FuzzCodegenEquivalence cross-checks the codegen Program — the exact
// semantics of the emitted straight-line source — against the
// interpreted plan on every netlist the fuzzer can deserialize: random
// values in, bit-identical words out. The emitted source itself must
// also survive go/format's parse (Emit fails otherwise), so every fuzz
// input doubles as a syntax check of the generator.
func FuzzCodegenEquivalence(f *testing.F) {
	dir := filepath.Join("..", "..", "..", "examples", "circuits")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".gnl") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data), int64(1))
	}
	f.Add("gnl v1\n0 input \"a[0]\"\n1 inv 0\nout \"y[0]\" 1\n", int64(2))
	f.Add("gnl v1\n0 const1\n1 buf 0\n2 dff 1 init=1 en=0 \"r[0]\"\n", int64(3))
	f.Add("gnl v1\n0 input \"a[0]\"\n1 input \"b[0]\"\n2 const0\n3 xor 0 1 2\nout \"y[0]\" 3\n", int64(4))

	f.Fuzz(func(t *testing.T, src string, seed int64) {
		nl, err := netlist.Read(strings.NewReader(src))
		if err != nil {
			return
		}
		plan, err := logicsim.Compile(nl)
		if err != nil {
			return
		}
		// Every compilable plan must lift and emit: a failure here is a
		// generator bug, not an invalid input.
		prog, err := FromPlan(plan)
		if err != nil {
			t.Fatalf("plan compiled but did not lift: %v", err)
		}
		if _, err := prog.Emit(Config{Package: "fuzz", Prefix: "g", Source: "fuzz"}); err != nil {
			t.Fatalf("plan lifted but did not emit: %v", err)
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
	})
}
