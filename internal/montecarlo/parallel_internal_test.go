package montecarlo

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// synthetic builds a standalone campaign aggregate for commit tests
// (no engine needed: commitBlocks only touches accumulated state).
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

// TestCommitBlocksFoldsIntoFirstBlock: the commit skips empty blocks,
// folds the rest in index order into the first committed block itself,
// leaves the later blocks as they were, and discards the rest of the
// round once after reports the stopping rule.
func TestCommitBlocksFoldsIntoFirstBlock(t *testing.T) {
	empty := synthetic("s", GateAttack)
	c1 := synthetic("s", GateAttack, 1, 0)
	c2 := synthetic("s", GateAttack, 0, 0, 1)
	var seen []int
	merged, err := commitBlocks(nil, []*Campaign{empty, c1, c2}, func(t *Campaign) bool {
		seen = append(seen, t.Est.N())
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged != c1 {
		t.Fatal("commit did not fold into the first committed block")
	}
	if merged.Est.N() != 5 || merged.Successes != 2 || merged.Options.Samples != 5 {
		t.Fatalf("merged N = %d, successes %d, Options.Samples %d", merged.Est.N(), merged.Successes, merged.Options.Samples)
	}
	if merged.RegContribution[netlist.NodeID(1)] != 5 || !merged.Patterns["ps"] {
		t.Errorf("attribution or patterns not merged: %v %v", merged.RegContribution, merged.Patterns)
	}
	if c2.Est.N() != 3 || c2.Successes != 1 {
		t.Errorf("later block changed by the commit: %+v", c2)
	}
	if !slices.Equal(seen, []int{2, 5}) {
		t.Errorf("after saw totals of %v samples, want [2 5]", seen)
	}

	total := synthetic("s", GateAttack, 0)
	b1, b2 := synthetic("s", GateAttack, 1), synthetic("s", GateAttack, 1)
	got, err := commitBlocks(total, []*Campaign{b1, b2}, func(*Campaign) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got != total || got.Est.N() != 2 {
		t.Errorf("stopping after the first block: total of %d samples, want 2 in the old total", got.Est.N())
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

func TestCommitBlocksSamplerMismatchIsHardError(t *testing.T) {
	c0 := synthetic("random", GateAttack, 1)
	c1 := synthetic("importance", GateAttack, 0)
	_, err := commitBlocks(nil, []*Campaign{c0, c1}, func(*Campaign) bool { return false })
	if err == nil || !strings.Contains(err.Error(), "sampler") || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("want sampler-mismatch error indexed to block 1, got %v", err)
	}
}
