package montecarlo_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/logicsim"
	"repro/internal/montecarlo"
)

// interpretedEvaluation builds a second, fully interpreted evaluation
// stack: generated-evaluator binding is disabled around core.Build, so
// every plan compiled for it interprets the op stream. Plans bind at
// compile time, so re-enabling afterwards does not retroactively
// switch the returned engine.
func interpretedEvaluation(t *testing.T) *core.Evaluation {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Precharac.MaxDepth = 51
	opts.Precharac.TraceCycles = 768
	opts.Precharac.LifetimeCap = 120
	opts.Precharac.Probes = 1
	// NewEvaluation compiles the engine's own simulator, so the whole
	// stack construction stays inside the disabled window.
	prev := logicsim.SetGeneratedEnabled(false)
	defer logicsim.SetGeneratedEnabled(prev)
	fw, err := core.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Engine.SoC.Sim.Plan().Generated() {
		t.Fatal("interpreted stack bound a generated evaluator")
	}
	return ev
}

// TestCampaignCodegenEquivalence is the codegen acceptance gate:
// fixed-seed campaigns over the generated straight-line evaluator are
// bit-identical to the interpreted ones, scalar and batched. The
// generated path may only ever change throughput, never a single
// sampled outcome.
func TestCampaignCodegenEquivalence(t *testing.T) {
	evGen := evaluation(t)
	if !evGen.Engine.SoC.Sim.Plan().Generated() {
		t.Fatal("default stack is not using the generated evaluator; mpu_evalgen.go failed to bind")
	}
	evInt := interpretedEvaluation(t)

	samplerGen, err := evGen.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	samplerInt, err := evInt.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}

	opts := montecarlo.CampaignOptions{
		Samples: 2000, Seed: 31,
		TrackConvergence: true, TrackPatterns: true,
	}
	wantScalar, err := evInt.Engine.RunCampaign(context.Background(), samplerInt, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotScalar, err := evGen.Engine.RunCampaign(context.Background(), samplerGen, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaigns(t, "scalar", gotScalar, wantScalar)

	opts.Batch = true
	opts.BatchWindow = 700
	wantBatched, err := evInt.Engine.RunCampaign(context.Background(), samplerInt, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotBatched, err := evGen.Engine.RunCampaign(context.Background(), samplerGen, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaigns(t, "batched", gotBatched, wantBatched)
}
