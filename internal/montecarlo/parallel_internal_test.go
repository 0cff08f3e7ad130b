package montecarlo

import (
	"context"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// synthetic builds a standalone campaign aggregate for merge tests (no
// engine needed: mergeShards only touches accumulated state).
func synthetic(sampler string, mode Mode, vals ...float64) *Campaign {
	c := &Campaign{
		SamplerName:     sampler,
		RegContribution: map[netlist.NodeID]float64{1: float64(len(vals))},
		Patterns:        map[string]bool{"p" + sampler: true},
	}
	c.Options.Mode = mode
	for _, v := range vals {
		c.Est.Add(v, 1)
		if v > 0 {
			c.Successes++
		}
		c.ClassCounts[0]++
		c.PathCounts[0]++
	}
	c.Options.Samples = len(vals)
	return c
}

// TestMergeShardsFoldsIntoFirstShard: the merge skips empty shards,
// folds the rest in index order into the first contributing shard
// itself, and leaves the later shards as they were.
func TestMergeShardsFoldsIntoFirstShard(t *testing.T) {
	empty := synthetic("s", GateAttack)
	c1 := synthetic("s", GateAttack, 1, 0)
	c2 := synthetic("s", GateAttack, 0, 0, 1)
	merged, err := mergeShards(context.Background(), []*Campaign{empty, c1, nil, c2}, make([]error, 4))
	if err != nil {
		t.Fatal(err)
	}
	if merged != c1 {
		t.Fatal("merge did not fold into the first contributing shard")
	}
	if merged.Est.N() != 5 || merged.Successes != 2 || merged.Options.Samples != 5 {
		t.Fatalf("merged N = %d, successes %d, Options.Samples %d", merged.Est.N(), merged.Successes, merged.Options.Samples)
	}
	if merged.RegContribution[netlist.NodeID(1)] != 5 || !merged.Patterns["ps"] {
		t.Errorf("attribution or patterns not merged: %v %v", merged.RegContribution, merged.Patterns)
	}
	if c2.Est.N() != 3 || c2.Successes != 1 {
		t.Errorf("later shard changed by the merge: %+v", c2)
	}
}

// TestSanitizeFixedSizeNeedsNoCriterion: a run with MinSamples ==
// MaxSamples ≥ 1 cannot stop early, so it needs no stopping criterion;
// every other run, the zero-valued options included, still does.
func TestSanitizeFixedSizeNeedsNoCriterion(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    AdaptiveOptions
		ok   bool
	}{
		{"zero value", AdaptiveOptions{}, false},
		{"fixed size", AdaptiveOptions{MinSamples: 10, MaxSamples: 10}, true},
		{"one sample", AdaptiveOptions{MinSamples: 1, MaxSamples: 1}, true},
		{"open budget", AdaptiveOptions{MinSamples: 10, MaxSamples: 20}, false},
		{"max below min", AdaptiveOptions{MinSamples: 20, MaxSamples: 10}, false},
		{"negative equal bounds", AdaptiveOptions{MinSamples: -1, MaxSamples: -1}, false},
		{"criterion", AdaptiveOptions{Epsilon: 0.01, Risk: 0.05}, true},
		{"bad risk", AdaptiveOptions{Epsilon: 0.01, Risk: 1, MinSamples: 10, MaxSamples: 20}, false},
	} {
		o := tc.o
		if err := o.sanitize(); (err == nil) != tc.ok {
			t.Errorf("%s: sanitize error %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

func TestMergeShardsSamplerMismatchIsHardError(t *testing.T) {
	c0 := synthetic("random", GateAttack, 1)
	c1 := synthetic("importance", GateAttack, 0)
	_, err := mergeShards(context.Background(), []*Campaign{c0, c1}, []error{nil, nil})
	if err == nil || !strings.Contains(err.Error(), "sampler") {
		t.Fatalf("want sampler-mismatch error, got %v", err)
	}
}
