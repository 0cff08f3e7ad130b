package logicsim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/netlist"
)

const genTestDesign = `gnl v1
0 input "a[0]"
1 input "b[0]"
2 and 0 1
3 xor 2 1
4 dff 3 en=0 "r[0]"
out "y[0]" 3
`

func genTestNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.Read(strings.NewReader(genTestDesign))
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestGeneratedBindsAndEvaluates registers a (correct) evaluator under
// the design's real plan hash and checks that Compile binds it, that
// Eval actually dispatches into it, and that the results stay
// bit-identical to the interpreter. The registered function delegates
// to EvalInterpreted, so even if a later test compiles a structurally
// identical netlist, the registry entry stays semantically exact.
func TestGeneratedBindsAndEvaluates(t *testing.T) {
	nl := genTestNetlist(t)
	base, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	RegisterGenerated(Generated{
		Hash:     base.Hash(),
		NumNodes: nl.NumNodes(),
		Eval: func(vals []uint64) {
			calls++
			base.EvalInterpreted(vals)
		},
	})
	plan, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Generated() {
		t.Fatal("plan did not bind the registered evaluator")
	}
	rng := rand.New(rand.NewSource(5))
	vals := make([]uint64, nl.NumNodes())
	want := make([]uint64, nl.NumNodes())
	for i := range vals {
		vals[i] = rng.Uint64()
		want[i] = vals[i]
	}
	plan.Eval(vals)
	base.EvalInterpreted(want)
	if calls == 0 {
		t.Error("Eval did not dispatch into the generated function")
	}
	for i := range vals {
		if vals[i] != want[i] {
			t.Errorf("node %d: generated %#x, interpreted %#x", i, vals[i], want[i])
		}
	}
}

// TestGeneratedInterlocks covers every way a registered evaluator must
// FAIL to bind: wrong hash, wrong node count, and the global disable
// switch. Falling back to the interpreter on any mismatch is the
// stale-code safety property the registry exists for.
func TestGeneratedInterlocks(t *testing.T) {
	// A design of its own, so registrations from other tests in this
	// package can never alias its plan hash.
	nl, err := netlist.Read(strings.NewReader(`gnl v1
0 input "a[0]"
1 input "b[0]"
2 or 0 1
3 nand 2 0
4 dff 3 en=0 "r[0]"
out "y[0]" 3
`))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(vals []uint64) { panic("stale generated evaluator executed") }

	// Wrong hash: never looked up.
	RegisterGenerated(Generated{Hash: base.Hash() ^ 0xdead, NumNodes: nl.NumNodes(), Eval: noop})
	plan, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generated() {
		t.Fatal("hash-mismatched evaluator bound")
	}

	// Right hash, wrong node count: rejected by the second interlock.
	RegisterGenerated(Generated{Hash: base.Hash(), NumNodes: nl.NumNodes() + 1, Eval: noop})
	plan, err = Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generated() {
		t.Fatal("node-count-mismatched evaluator bound")
	}
	vals := make([]uint64, nl.NumNodes())
	plan.Eval(vals) // must interpret, not panic in noop

	// Disable switch: nothing binds while off, previous setting returns.
	RegisterGenerated(Generated{Hash: base.Hash(), NumNodes: nl.NumNodes(), Eval: base.EvalInterpreted})
	prev := SetGeneratedEnabled(false)
	if !prev {
		t.Error("generated evaluators were not enabled by default")
	}
	plan, err = Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generated() {
		t.Fatal("evaluator bound while generation disabled")
	}
	SetGeneratedEnabled(true)
	plan, err = Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Generated() {
		t.Fatal("evaluator did not bind after re-enabling")
	}

	// Leave no live evaluator behind for this tiny design: later tests
	// in the package may compile an identical netlist. Re-register a
	// delegating (always-correct) entry.
	RegisterGenerated(Generated{Hash: base.Hash(), NumNodes: nl.NumNodes(), Eval: base.EvalInterpreted})
}

// TestRegisterGeneratedRejectsEmpty pins the registration guard.
func TestRegisterGeneratedRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RegisterGenerated with no functions did not panic")
		}
	}()
	RegisterGenerated(Generated{Hash: 42})
}

// TestHashSensitivity: plans of different designs hash differently,
// and the hash is stable across compiles of the same design.
func TestHashSensitivity(t *testing.T) {
	nl := genTestNetlist(t)
	a, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Error("same design, different hash across compiles")
	}
	other, err := netlist.Read(strings.NewReader("gnl v1\n0 input \"a[0]\"\n1 inv 0\nout \"y[0]\" 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	if o.Hash() == a.Hash() {
		t.Error("different designs share a plan hash")
	}
}
