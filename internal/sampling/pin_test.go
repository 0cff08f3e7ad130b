package sampling_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sampling"
)

// pinnedImportanceHash is samplerHash of the default importance
// sampler over the default framework and attack (core.DefaultOptions,
// core.DefaultAttackSpec). It was recorded from the map-based sampler
// construction that scanned the whole placement per candidate; any
// later change to sampler set-up must reproduce it bit for bit.
const pinnedImportanceHash = 0x329e557aa8929c14

// samplerHash folds a sampler's timing distribution, its center
// probability for every (timing distance, candidate) pair and a fixed
// stream of draws with their weights into one FNV-64a hash.
func samplerHash(s sampling.Sampler, a *fault.Attack, centerProb func(t int, g netlist.NodeID) float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range s.TimingProbs() {
		word(math.Float64bits(p))
	}
	for t := 0; t < a.TRange; t++ {
		for _, g := range a.Candidates {
			word(math.Float64bits(centerProb(t, g)))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		d, w := s.Draw(rng)
		word(uint64(d.T))
		word(uint64(d.Center))
		word(math.Float64bits(d.Radius))
		word(math.Float64bits(d.Width))
		word(math.Float64bits(d.Time))
		word(math.Float64bits(w))
	}
	return h.Sum64()
}

// TestDefaultSamplersPinned holds the default importance sampler, its
// candidate layers Ω_t and their spot dilation included, to
// bit-identity.
func TestDefaultSamplersPinned(t *testing.T) {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := fw.NewAttack(core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	im, err := sampling.NewImportance(a, fw.Char, fw.MPU.Netlist, fw.Place, sampling.DefaultAlpha, sampling.DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	if got := samplerHash(im, a, im.CenterProb); got != pinnedImportanceHash {
		t.Errorf("importance sampler hash %#x, pinned %#x", got, uint64(pinnedImportanceHash))
	}
}
