package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
)

// RankRequest is the body of POST /v1/rank: evaluate N hardening
// variants of the design under one campaign configuration and return a
// leaderboard ranked by hardened SSF (most secure first). The same
// seed is used for the base campaign and every variant, so the
// leaderboard is deterministic for a given request.
type RankRequest struct {
	// Samples per campaign (base + one per variant).
	Samples int `json:"samples"`
	// Sampler, Mode, Seed as in JobRequest.
	Sampler string `json:"sampler,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Seed    int64  `json:"seed"`
	// Variants are the hardening plans to rank.
	Variants []RankVariant `json:"variants"`
}

// RankVariant names one hardening plan. Registers come from exactly one
// of: Regs (explicit netlist node IDs), TopN (the N most critical
// registers of the base campaign), or Share (the top-ranked registers
// covering this fraction of the base campaign's success mass, e.g.
// 0.95 for the paper's countermeasure study).
type RankVariant struct {
	Name string `json:"name"`
	// Regs hardens an explicit register set: distinct node IDs of
	// registers of the served MPU netlist.
	Regs []netlist.NodeID `json:"regs,omitempty"`
	// TopN hardens the N most critical registers.
	TopN int `json:"top_n,omitempty"`
	// Share hardens the registers covering this share of success mass.
	Share float64 `json:"share,omitempty"`
	// Resilience is the hardened cell's upset-rate improvement factor,
	// at least 1 (default 10, the paper's published figure).
	Resilience float64 `json:"resilience,omitempty"`
	// AreaFactor is the hardened cell's relative area, at least 1
	// (default 3). Each field defaults on its own.
	AreaFactor float64 `json:"area_factor,omitempty"`
}

// RankEntry is one leaderboard row.
type RankEntry struct {
	Rank int    `json:"rank"`
	Name string `json:"name"`
	// SSF is the hardened design's estimate; lower is more secure.
	SSF    float64 `json:"ssf"`
	StdErr float64 `json:"std_err"`
	// Improvement is BaseSSF / SSF. When the hardened campaign saw no
	// successes, NoSuccess is set and Improvement is the 95% lower
	// bound of harden.Improvement; below 1 (0 for a sampler whose
	// largest weight is unknown: stratified) it is unresolved, no
	// evidence either way.
	Improvement float64 `json:"improvement"`
	NoSuccess   bool    `json:"no_success,omitempty"`
	// AreaOverhead is the fractional netlist area increase.
	AreaOverhead float64 `json:"area_overhead"`
	NumRegs      int     `json:"num_regs"`
	RegFraction  float64 `json:"reg_fraction"`
}

// RankResponse is the leaderboard.
type RankResponse struct {
	BaseSSF    float64     `json:"base_ssf"`
	BaseStdErr float64     `json:"base_std_err"`
	Samples    int         `json:"samples"`
	Sampler    string      `json:"sampler"`
	Mode       string      `json:"mode"`
	Seed       int64       `json:"seed"`
	Entries    []RankEntry `json:"leaderboard"`
}

// maxVariants caps the variant count of one rank request.
const maxVariants = 16

// normalize applies defaults and validates; explicit register sets must
// name registers of nl.
func (r *RankRequest) normalize(maxSamples int, nl *netlist.Netlist) error {
	if r.Sampler == "" {
		r.Sampler = core.DefaultSampler
	}
	if r.Mode == "" {
		r.Mode = "gate"
	}
	if _, err := montecarlo.ParseMode(r.Mode); err != nil {
		return err
	}
	if err := core.CheckSampler(r.Sampler); err != nil {
		return err
	}
	if r.Samples < 1 || r.Samples > maxSamples {
		return fmt.Errorf("samples %d outside [1, %d]", r.Samples, maxSamples)
	}
	if len(r.Variants) == 0 || len(r.Variants) > maxVariants {
		return fmt.Errorf("variant count %d outside [1, %d]", len(r.Variants), maxVariants)
	}
	names := make(map[string]bool, len(r.Variants))
	for i := range r.Variants {
		v := &r.Variants[i]
		if v.Name == "" {
			v.Name = fmt.Sprintf("variant-%d", i)
		}
		if names[v.Name] {
			return fmt.Errorf("duplicate variant name %q", v.Name)
		}
		names[v.Name] = true
		specs := 0
		if len(v.Regs) > 0 {
			specs++
		}
		if v.TopN > 0 {
			specs++
		}
		if v.Share > 0 {
			specs++
		}
		if specs != 1 {
			return fmt.Errorf("variant %q: exactly one of regs, top_n, share must be set", v.Name)
		}
		if v.Share < 0 || v.Share > 1 {
			return fmt.Errorf("variant %q: share %v outside (0, 1]", v.Name, v.Share)
		}
		seen := make(map[netlist.NodeID]bool, len(v.Regs))
		for _, id := range v.Regs {
			if id < 0 || int(id) >= nl.NumNodes() || nl.Node(id).Type != netlist.DFF {
				return fmt.Errorf("variant %q: node %d is not a register of the MPU", v.Name, id)
			}
			// A repeat would count its register twice in the area and
			// register accounting.
			if seen[id] {
				return fmt.Errorf("variant %q: register %d named twice", v.Name, id)
			}
			seen[id] = true
		}
		resilience, areaFactor := harden.DefaultCellParams()
		if v.Resilience == 0 {
			v.Resilience = resilience
		}
		if v.AreaFactor == 0 {
			v.AreaFactor = areaFactor
		}
		if v.Resilience < 1 {
			return fmt.Errorf("variant %q: resilience %v < 1", v.Name, v.Resilience)
		}
		if v.AreaFactor < 1 {
			return fmt.Errorf("variant %q: area_factor %v < 1", v.Name, v.AreaFactor)
		}
	}
	return nil
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	if !s.checkRate(w, r) {
		return
	}
	var req RankRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.normalize(s.cfg.MaxSamples, s.pool.Evaluation.Framework.MPU.Netlist); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.rank(r.Context(), req)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// rank runs the base campaign, then re-runs the identical campaign
// under each variant's hardening plan, and ranks the variants by
// hardened SSF. It holds the engine pool for the whole evaluation, so
// rank requests serialize with queued jobs.
func (s *Server) rank(ctx context.Context, req RankRequest) (*RankResponse, error) {
	sp, err := s.sampler(req.Sampler)
	if err != nil {
		return nil, err
	}
	mode, _ := montecarlo.ParseMode(req.Mode)
	// Every campaign is fixed-size, in blocks of FixedSizeBlock across
	// the pool, so the leaderboard does not depend on the pool size.
	opts := montecarlo.AdaptiveOptions{
		Mode:       mode,
		Seed:       req.Seed,
		MinSamples: req.Samples,
		MaxSamples: req.Samples,
		CheckEvery: montecarlo.FixedSizeBlock,
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()

	base, err := s.pool.RunAdaptive(ctx, sp, opts)
	if err != nil {
		return nil, fmt.Errorf("base campaign: %w", err)
	}
	ranked := base.CriticalRegisters()
	nl := s.pool.Evaluation.Framework.MPU.Netlist

	resp := &RankResponse{
		BaseSSF:    base.SSF(),
		BaseStdErr: base.Est.StdErr(),
		Samples:    req.Samples,
		Sampler:    sp.Name(),
		Mode:       req.Mode,
		Seed:       req.Seed,
		Entries:    make([]RankEntry, 0, len(req.Variants)),
	}
	for _, v := range req.Variants {
		regs := v.Regs
		switch {
		case v.TopN > 0:
			regs = harden.Top(ranked, v.TopN)
		case v.Share > 0:
			regs = harden.FromCritical(ranked, v.Share)
		}
		plan := harden.Plan{Regs: regs, Resilience: v.Resilience, AreaFactor: v.AreaFactor}
		restores := make([]func(), 0, s.pool.Size())
		for _, eng := range s.pool.Engines {
			restores = append(restores, plan.Apply(eng))
		}
		hard, err := s.pool.RunAdaptive(ctx, sp, opts)
		for i := len(restores) - 1; i >= 0; i-- {
			restores[i]()
		}
		if err != nil {
			return nil, fmt.Errorf("variant %q: %w", v.Name, err)
		}
		res := harden.Compare(base, hard, sp, plan, nl)
		resp.Entries = append(resp.Entries, RankEntry{
			Name:         v.Name,
			SSF:          res.HardenedSSF,
			StdErr:       hard.Est.StdErr(),
			Improvement:  res.Improvement,
			NoSuccess:    res.HardenedNoSuccess,
			AreaOverhead: res.AreaOverhead,
			NumRegs:      res.NumRegs,
			RegFraction:  res.RegFraction,
		})
	}
	// Most secure (lowest hardened SSF) first; ties break by name so
	// the leaderboard is fully deterministic.
	sort.Slice(resp.Entries, func(i, j int) bool {
		if resp.Entries[i].SSF != resp.Entries[j].SSF {
			return resp.Entries[i].SSF < resp.Entries[j].SSF
		}
		return resp.Entries[i].Name < resp.Entries[j].Name
	})
	for i := range resp.Entries {
		resp.Entries[i].Rank = i + 1
	}
	return resp, nil
}
