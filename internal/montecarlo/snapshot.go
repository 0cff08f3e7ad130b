package montecarlo

import (
	"fmt"
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
// checkpointed RunAdaptiveParallel as if it had never stopped.
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

// Validate sanity-checks a snapshot loaded from untrusted storage
// before it is fed to AdaptiveOptions.Resume.
func (s *CampaignSnapshot) Validate() error {
	if s.Est.N < 0 {
		return fmt.Errorf("montecarlo: snapshot has negative sample count %d", s.Est.N)
	}
	if s.Mode != GateAttack && s.Mode != RegisterAttack {
		return fmt.Errorf("montecarlo: snapshot has unknown mode %d", int(s.Mode))
	}
	if s.Strata != nil {
		if _, err := stats.FromStratifiedState(*s.Strata); err != nil {
			return fmt.Errorf("montecarlo: snapshot strata: %w", err)
		}
	}
	return nil
}
