package montecarlo

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netlist"
	"repro/internal/stats"
	"repro/internal/timingsim"
)

// Clone returns a deep copy of the campaign: mutating the copy (further
// Merges, estimator updates, map writes) never touches the original.
// The Options.Progress callback is shared — it is configuration, not
// accumulated state.
func (c *Campaign) Clone() *Campaign {
	if c == nil {
		return nil
	}
	o := *c
	if c.Convergence != nil {
		o.Convergence = append([]float64(nil), c.Convergence...)
	}
	if c.Strata != nil {
		o.Strata = c.Strata.Clone()
	}
	if c.TDraws != nil {
		o.TDraws = append([]int(nil), c.TDraws...)
	}
	if c.THits != nil {
		o.THits = append([]int(nil), c.THits...)
	}
	if c.RegContribution != nil {
		o.RegContribution = make(map[netlist.NodeID]float64, len(c.RegContribution))
		for k, v := range c.RegContribution {
			o.RegContribution[k] = v
		}
	}
	if c.Patterns != nil {
		o.Patterns = make(map[string]bool, len(c.Patterns))
		for k := range c.Patterns {
			o.Patterns[k] = true
		}
	}
	if c.PatternCounts != nil {
		o.PatternCounts = make(map[timingsim.PatternClass]int, len(c.PatternCounts))
		for k, v := range c.PatternCounts {
			o.PatternCounts[k] = v
		}
	}
	return &o
}

// CampaignSnapshot is the serializable form of a Campaign, built for
// checkpoint/resume across process restarts: every field is exported
// data (no callbacks), and a Snapshot → JSON → Campaign round trip
// reproduces the campaign bit-identically — encoding/json emits
// float64s in the shortest form that parses back to the same value, and
// the estimator state is captured exactly (stats.WelfordState). Feeding
// a restored campaign to AdaptiveOptions.Resume therefore continues a
// checkpointed RunAdaptiveParallel, on any number of engines, as if it
// had never stopped.
type CampaignSnapshot struct {
	SamplerName string `json:"sampler"`
	Mode        Mode   `json:"mode"`
	Seed        int64  `json:"seed"`
	Samples     int    `json:"samples"`

	Est         stats.WelfordState             `json:"est"`
	Weights     stats.WeightMomentsState       `json:"weights"`
	Strata      *stats.StratifiedState         `json:"strata,omitempty"`
	TDraws      []int                          `json:"t_draws,omitempty"`
	THits       []int                          `json:"t_hits,omitempty"`
	Convergence []float64                      `json:"convergence,omitempty"`
	ClassCounts [3]int                         `json:"class_counts"`
	PathCounts  [4]int                         `json:"path_counts"`
	Successes   int                            `json:"successes"`
	RTLCycles   int                            `json:"rtl_cycles"`
	RegContrib  map[netlist.NodeID]float64     `json:"reg_contribution,omitempty"`
	Patterns    []string                       `json:"patterns,omitempty"`
	PatternHist map[timingsim.PatternClass]int `json:"pattern_counts,omitempty"`
}

// Snapshot captures the campaign's accumulated state. The snapshot owns
// its memory (deep-copied maps and slices); Patterns are sorted so the
// serialized form is deterministic.
func (c *Campaign) Snapshot() *CampaignSnapshot {
	if c == nil {
		return nil
	}
	s := &CampaignSnapshot{
		SamplerName: c.SamplerName,
		Mode:        c.Options.Mode,
		Seed:        c.Options.Seed,
		Samples:     c.Options.Samples,
		Est:         c.Est.State(),
		Weights:     c.Weights.State(),
		ClassCounts: c.ClassCounts,
		PathCounts:  c.PathCounts,
		Successes:   c.Successes,
		RTLCycles:   c.RTLCycles,
	}
	if c.Strata != nil {
		st := c.Strata.State()
		s.Strata = &st
	}
	if len(c.TDraws) > 0 {
		s.TDraws = append([]int(nil), c.TDraws...)
	}
	if len(c.THits) > 0 {
		s.THits = append([]int(nil), c.THits...)
	}
	if c.Convergence != nil {
		s.Convergence = append([]float64(nil), c.Convergence...)
	}
	if len(c.RegContribution) > 0 {
		s.RegContrib = make(map[netlist.NodeID]float64, len(c.RegContribution))
		for k, v := range c.RegContribution {
			s.RegContrib[k] = v
		}
	}
	if len(c.Patterns) > 0 {
		s.Patterns = make([]string, 0, len(c.Patterns))
		//maporder-ok (sorted immediately below)
		for p := range c.Patterns {
			s.Patterns = append(s.Patterns, p)
		}
		sort.Strings(s.Patterns)
	}
	if len(c.PatternCounts) > 0 {
		s.PatternHist = make(map[timingsim.PatternClass]int, len(c.PatternCounts))
		for k, v := range c.PatternCounts {
			s.PatternHist[k] = v
		}
	}
	return s
}

// Campaign reconstructs the campaign the snapshot was taken from. The
// result owns its memory; the snapshot stays usable.
func (s *CampaignSnapshot) Campaign() *Campaign {
	if s == nil {
		return nil
	}
	c := &Campaign{
		SamplerName: s.SamplerName,
		Options: CampaignOptions{
			Samples: s.Samples,
			Mode:    s.Mode,
			Seed:    s.Seed,
		},
		Est:             stats.FromWeightedState(s.Est),
		Weights:         stats.FromWeightMomentsState(s.Weights),
		ClassCounts:     s.ClassCounts,
		PathCounts:      s.PathCounts,
		Successes:       s.Successes,
		RTLCycles:       s.RTLCycles,
		RegContribution: make(map[netlist.NodeID]float64, len(s.RegContrib)),
	}
	if s.Strata != nil {
		// Shape errors are caught by Validate; a snapshot that skipped
		// validation and fails here resumes without per-stratum state
		// (Merge then rejects it, so the corruption cannot spread).
		c.Strata, _ = stats.FromStratifiedState(*s.Strata)
	}
	if len(s.TDraws) > 0 {
		c.TDraws = append([]int(nil), s.TDraws...)
	}
	if len(s.THits) > 0 {
		c.THits = append([]int(nil), s.THits...)
	}
	if s.Convergence != nil {
		c.Convergence = append([]float64(nil), s.Convergence...)
	}
	for k, v := range s.RegContrib {
		c.RegContribution[k] = v
	}
	if len(s.Patterns) > 0 {
		c.Patterns = make(map[string]bool, len(s.Patterns))
		for _, p := range s.Patterns {
			c.Patterns[p] = true
		}
	}
	if len(s.PatternHist) > 0 {
		c.PatternCounts = make(map[timingsim.PatternClass]int, len(s.PatternHist))
		for k, v := range s.PatternHist {
			c.PatternCounts[k] = v
		}
	}
	return c
}

// Validate checks a snapshot loaded from untrusted storage before it is
// fed to AdaptiveOptions.Resume. It rejects what no campaign can
// accumulate, so that a corrupt checkpoint fails instead of resuming
// into a wrong answer: an unknown mode, a negative or non-finite
// estimator or weight sum, a negative count, counts that do not add up
// to the sample count or to the successes, and more hits than draws at
// some timing distance.
func (s *CampaignSnapshot) Validate() error {
	n := s.Est.N
	switch {
	case s.Mode != GateAttack && s.Mode != RegisterAttack:
		return fmt.Errorf("montecarlo: snapshot has unknown mode %d", int(s.Mode))
	case n < 0:
		return fmt.Errorf("montecarlo: snapshot has negative sample count %d", n)
	case !accumulated(s.Est) || !nonNegative(s.Weights.SumW) || !nonNegative(s.Weights.SumW2):
		return fmt.Errorf("montecarlo: snapshot has estimator %+v and weight sums %+v", s.Est, s.Weights)
	case s.Samples != n || s.Weights.N != n || !sumsTo(s.ClassCounts[:], n) || !sumsTo(s.PathCounts[:], n) || !sumsTo(s.TDraws, n):
		return fmt.Errorf("montecarlo: snapshot of %d samples counts %d samples, %d weights, classes %v, paths %v, per-t draws %v",
			n, s.Samples, s.Weights.N, s.ClassCounts, s.PathCounts, s.TDraws)
	case s.Successes > n || !sumsTo(s.THits, s.Successes) || s.RTLCycles < 0:
		return fmt.Errorf("montecarlo: snapshot has %d successes in %d samples, per-t hits %v, %d RTL cycles", s.Successes, n, s.THits, s.RTLCycles)
	}
	for t, h := range s.THits {
		if t >= len(s.TDraws) || h > s.TDraws[t] {
			return fmt.Errorf("montecarlo: snapshot has %d hits at t=%d in fewer draws", h, t)
		}
	}
	for _, v := range s.PatternHist {
		if v < 0 {
			return fmt.Errorf("montecarlo: snapshot has a negative pattern count %d", v)
		}
	}
	if s.Strata == nil {
		return nil
	}
	if _, err := stats.FromStratifiedState(*s.Strata); err != nil {
		return fmt.Errorf("montecarlo: snapshot strata: %w", err)
	}
	draws := make([]int, len(s.Strata.Strata))
	for k, w := range s.Strata.Strata {
		if !accumulated(w) {
			return fmt.Errorf("montecarlo: snapshot stratum %d has estimator %+v", k, w)
		}
		draws[k] = w.N
	}
	if !sumsTo(draws, n) || !sumsTo(s.Strata.Hits, s.Successes) {
		return fmt.Errorf("montecarlo: snapshot strata hold %v draws and %v hits, not %d and %d", draws, s.Strata.Hits, n, s.Successes)
	}
	return nil
}

// accumulated reports whether a Welford state is one that a stream of
// non-negative terms produces.
func accumulated(w stats.WelfordState) bool {
	return w.N >= 0 && nonNegative(w.Mean) && nonNegative(w.M2)
}

// nonNegative reports whether x is finite and not negative.
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// sumsTo reports whether the counts are non-negative and add up to
// total, without overflowing.
func sumsTo(counts []int, total int) bool {
	for _, c := range counts {
		if c < 0 || c > total {
			return false
		}
		total -= c
	}
	return total == 0
}
