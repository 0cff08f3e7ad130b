package soc

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/logicsim/codegen"
	"repro/internal/netlist"
)

// TestGeneratedEvaluatorBinds pins the transparent swap-in: compiling
// the bundled MPU in this process (where mpu_evalgen.go's init has
// registered) must yield a plan bound to the generated evaluator.
func TestGeneratedEvaluatorBinds(t *testing.T) {
	mpu, err := BuildMPU(DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logicsim.New(mpu.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Plan().Generated() {
		t.Fatal("MPU plan did not bind the committed generated evaluator; mpu_evalgen.go is stale — run `go generate ./...`")
	}
}

// TestGeneratedEvaluatorNotDrifted regenerates the MPU evaluator
// source in-process and compares it byte for byte against the
// committed mpu_evalgen.go — the same check the CI drift job performs
// with `go generate ./... && git diff --exit-code`, available locally
// in a plain `go test`.
func TestGeneratedEvaluatorNotDrifted(t *testing.T) {
	cfg := DefaultMPUConfig()
	mpu, err := BuildMPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Must mirror the go:generate directive in mpu.go exactly.
	src, err := codegen.Generate(mpu.Netlist, codegen.Config{
		Package: "soc",
		Prefix:  "mpuGen",
		Source:  fmt.Sprintf("built-in MPU (soc.BuildMPU, regions=%d, addrBits=%d)", cfg.Regions, cfg.AddrBits),
	})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("mpu_evalgen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != string(committed) {
		t.Fatal("mpu_evalgen.go drifted from the generator output; run `go generate ./...` (or `make gen`) and commit the result")
	}
}

// TestGeneratedMatchesInterpretedScalar drives both evaluation paths
// of the MPU — generated straight-line code and the interpreted op
// stream — through identical random clocked cycles and demands
// bit-identical values on every node, every cycle.
func TestGeneratedMatchesInterpretedScalar(t *testing.T) {
	mpu, err := BuildMPU(DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	nl := mpu.Netlist

	prev := logicsim.SetGeneratedEnabled(false)
	interp, errI := logicsim.New(nl)
	logicsim.SetGeneratedEnabled(prev)
	if errI != nil {
		t.Fatal(errI)
	}
	gen, err := logicsim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	if !gen.Plan().Generated() || interp.Plan().Generated() {
		t.Fatalf("setup inverted: gen bound=%v interp bound=%v", gen.Plan().Generated(), interp.Plan().Generated())
	}

	inputs := nl.Inputs()
	rng := rand.New(rand.NewSource(99))
	for cyc := 0; cyc < 32; cyc++ {
		for _, id := range inputs {
			w := rng.Uint64()
			gen.SetInput(id, w)
			interp.SetInput(id, w)
		}
		gen.Step()
		interp.Step()
		for i := 0; i < nl.NumNodes(); i++ {
			id := netlist.NodeID(i)
			if g, w := gen.Val(id), interp.Val(id); g != w {
				t.Fatalf("cycle %d node %d (%v): generated %#x, interpreted %#x",
					cyc, id, nl.Node(id).Type, g, w)
			}
		}
	}
}
