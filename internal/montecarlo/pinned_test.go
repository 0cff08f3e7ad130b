package montecarlo_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// pinnedResult is the part of a campaign that must never drift under a
// refactor of the execution paths: the estimate and its CI half-width
// bit for bit, the sample count, and the outcome accounting.
type pinnedResult struct {
	SSF, CI   uint64 // math.Float64bits
	N         int
	Paths     [4]int
	RTLCycles int
	Successes int
}

func pin(c *montecarlo.Campaign) pinnedResult {
	return pinnedResult{
		SSF:       math.Float64bits(c.SSF()),
		CI:        math.Float64bits(c.CIHalfWidth()),
		N:         c.Est.N(),
		Paths:     c.PathCounts,
		RTLCycles: c.RTLCycles,
		Successes: c.Successes,
	}
}

// TestPinnedResults compares fixed-seed campaigns against literal
// values, so a change to any execution path (the lane-batched campaign
// loop, the scalar reference loop over RunOnce, chunked adaptive,
// parallel rounds) that moves a single outcome fails here rather than
// only in an end-to-end benchmark. The scalar reference and RunCampaign
// share one expectation: they must agree with each other as well as
// with the record. Re-record only when a change is meant to alter
// sampled outcomes, and say so in the change. The test builds its own
// framework rather than the shared one, so a run at each -cpu value
// checks a set-up done at that value.
func TestPinnedResults(t *testing.T) {
	fw, err := core.Build(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ev.NewEnginePool(2)
	if err != nil {
		t.Fatal(err)
	}
	importance, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		mode     montecarlo.Mode
		sampler  sampling.Sampler
		samples  int
		eps      float64
		campaign pinnedResult // scalar reference and RunCampaign
		adaptive pinnedResult // RunAdaptive
		parallel pinnedResult // RunAdaptiveParallel on 2 engines
	}{
		{
			name: "gate_importance", mode: montecarlo.GateAttack, sampler: importance,
			samples: 12000, eps: 2.5e-4,
			campaign: pinnedResult{SSF: 0x3f3dc99f740a9f6e, CI: 0x3f2947f817cd853e, N: 12000,
				Paths: [4]int{11221, 234, 203, 342}, RTLCycles: 2027, Successes: 37},
			adaptive: pinnedResult{SSF: 0x3f3120095e32e04c, CI: 0x3f29acfbabf2beef, N: 6000,
				Paths: [4]int{5611, 131, 96, 162}, RTLCycles: 753, Successes: 13},
			parallel: pinnedResult{SSF: 0x3f2b6427ea3d4436, CI: 0x3f22d574633b7b08, N: 6000,
				Paths: [4]int{5625, 125, 93, 157}, RTLCycles: 853, Successes: 12},
		},
		{
			name: "register_random", mode: montecarlo.RegisterAttack, sampler: ev.RandomSampler(),
			samples: 8000, eps: 5e-3,
			campaign: pinnedResult{SSF: 0x3fa072b020c49b9d, CI: 0x3f6fa7d96b463f1a, N: 8000,
				Paths: [4]int{3491, 2512, 172, 1825}, RTLCycles: 31666, Successes: 257},
			adaptive: pinnedResult{SSF: 0x3f9ff2e48e8a71db, CI: 0x3f73bd99675af3a2, N: 5000,
				Paths: [4]int{2187, 1633, 113, 1067}, RTLCycles: 19038, Successes: 156},
			parallel: pinnedResult{SSF: 0x3fa126e978d4fdf7, CI: 0x3f72a68b47f6aa32, N: 6000,
				Paths: [4]int{2593, 1907, 152, 1348}, RTLCycles: 23840, Successes: 201},
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		check := func(runner string, c *montecarlo.Campaign, err error, want pinnedResult) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, runner, err)
			}
			if got := pin(c); got != want {
				t.Errorf("%s/%s: got %#v\nwant %#v", tc.name, runner, got, want)
			}
		}
		copts := montecarlo.CampaignOptions{Samples: tc.samples, Mode: tc.mode, Seed: 41}
		c, err := ev.Engine.RunCampaignScalar(ctx, tc.sampler, copts)
		check("scalar", c, err, tc.campaign)
		c, err = ev.Engine.RunCampaign(ctx, tc.sampler, copts)
		check("batched", c, err, tc.campaign)

		// Risk 1/z95² makes eps the target CI half-width, as in the
		// time-to-answer benchmark; the answer stops before MaxSamples.
		aopts := montecarlo.AdaptiveOptions{
			Mode: tc.mode, Seed: 43, Epsilon: tc.eps, Risk: 1 / (stats.Z95 * stats.Z95),
			MinSamples: tc.samples / 2, MaxSamples: tc.samples, CheckEvery: 1000,
		}
		c, err = ev.Engine.RunAdaptive(ctx, tc.sampler, aopts)
		check("adaptive", c, err, tc.adaptive)
		c, err = montecarlo.RunAdaptiveParallel(ctx, pool.Engines, tc.sampler, aopts)
		check("parallel", c, err, tc.parallel)
	}
}
