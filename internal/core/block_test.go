package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/netlist"
)

// candidateBlockScan is CandidateBlock as a map-based sort of every
// gate by its distance to the nearest seed, computed for every gate:
// the oracle of the seed-first CandidateBlock.
func candidateBlockScan(f *Framework, frac float64) []netlist.NodeID {
	nl := f.MPU.Netlist
	var comb []netlist.NodeID
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		t := nl.Node(id).Type
		if t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1 {
			comb = append(comb, id)
		}
	}
	if frac >= 1 {
		sort.Slice(comb, func(a, b int) bool { return comb[a] < comb[b] })
		return comb
	}
	seed := map[netlist.NodeID]bool{}
	for i := 0; i <= 2 && i <= f.Char.MaxUnrollIndex(); i++ {
		for _, g := range f.Char.CombLayer(nl, i) {
			seed[g] = true
		}
	}
	if len(seed) == 0 {
		seed[f.SecurityTarget()] = true
	}
	dist := make(map[netlist.NodeID]float64, len(comb))
	for _, g := range comb {
		if seed[g] {
			dist[g] = 0
			continue
		}
		best := -1.0
		//maporder-ok (the minimum does not depend on the order)
		for s := range seed {
			if d := f.Place.Dist(g, s); best < 0 || d < best {
				best = d
			}
		}
		dist[g] = best
	}
	sort.Slice(comb, func(a, b int) bool {
		if dist[comb[a]] != dist[comb[b]] {
			return dist[comb[a]] < dist[comb[b]]
		}
		return comb[a] < comb[b]
	})
	n := int(frac * float64(len(comb)))
	if n < len(seed) {
		n = len(seed)
	}
	if n < 1 {
		n = 1
	}
	block := append([]netlist.NodeID(nil), comb[:n]...)
	sort.Slice(block, func(a, b int) bool { return block[a] < block[b] })
	return block
}

// TestCandidateBlockMatchesScan compares CandidateBlock with the
// all-pairs oracle at the default fraction (the seeds alone), at 0.7167
// (the first fraction that takes a gate past the seeds), at 0.8 and at 1
// (every gate).
func TestCandidateBlockMatchesScan(t *testing.T) {
	fw := testFramework(t)
	seeds := len(fw.CandidateBlock(0))
	for _, frac := range []float64{0.125, 0.7167, 0.8, 1} {
		got, want := fw.CandidateBlock(frac), candidateBlockScan(fw, frac)
		if !slices.Equal(got, want) {
			t.Fatalf("frac %v: block of %d gates differs from the scan's %d", frac, len(got), len(want))
		}
		if frac == 0.7167 && len(got) <= seeds {
			t.Fatalf("frac %v: %d gates, no more than the %d seeds", frac, len(got), seeds)
		}
	}
}
