package montecarlo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/montecarlo"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// FuzzCampaignSnapshot feeds arbitrary JSON to the checkpoint decoder.
// Whatever decodes and passes Validate — the gate a stored checkpoint
// passes before a job resumes from it — must survive reconstruction,
// have a variance of at least 0 and a CI that is not NaN, survive a
// Merge into a fresh campaign of the same sampler and mode, and a
// Snapshot → JSON round trip that re-encodes byte-identically. The corpus starts from real snapshots of a short
// gate campaign and a short stratified campaign.
func FuzzCampaignSnapshot(f *testing.F) {
	ev := evaluation(f)
	fw := framework(f)
	im, err := sampling.NewImportance(ev.Attack, fw.Char, fw.MPU.Netlist, fw.Place, sampling.DefaultAlpha, sampling.DefaultBeta)
	if err != nil {
		f.Fatal(err)
	}
	strat, err := sampling.NewStratified(im)
	if err != nil {
		f.Fatal(err)
	}
	for _, sp := range []sampling.Sampler{im, strat} {
		c, err := ev.Engine.RunCampaign(context.Background(), sp, montecarlo.CampaignOptions{
			Samples: 400, Seed: 3, TrackConvergence: true, TrackPatterns: true,
		})
		if err != nil {
			f.Fatal(err)
		}
		snap := c.Snapshot()
		if err := snap.Validate(); err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap montecarlo.CampaignSnapshot
		if json.Unmarshal(data, &snap) != nil || snap.Validate() != nil {
			return
		}
		c := snap.Campaign()
		_ = c.SSF()
		if v, ci := c.EstimatorVariance(), c.CIHalfWidth(); !(v >= 0) || !(c.Variance() >= 0) || math.IsNaN(ci) {
			t.Fatalf("validated snapshot has variance %v (%v per term) and CI half-width %v", v, c.Variance(), ci)
		}

		fresh := &montecarlo.CampaignSnapshot{SamplerName: snap.SamplerName, Mode: snap.Mode}
		if snap.Strata != nil {
			k := len(snap.Strata.Probs)
			fresh.Strata = &stats.StratifiedState{
				Probs:  snap.Strata.Probs,
				Strata: make([]stats.WelfordState, k),
				Hits:   make([]int, k),
			}
		}
		if err := fresh.Campaign().Merge(c); err != nil {
			t.Fatalf("merge into a fresh campaign of the same sampler and mode: %v", err)
		}

		enc, err := json.Marshal(c.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var back montecarlo.CampaignSnapshot
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		again, err := json.Marshal(back.Campaign().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("snapshot changed over a JSON round trip:\n%s\n%s", enc, again)
		}
	})
}
