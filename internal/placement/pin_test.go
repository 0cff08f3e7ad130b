package placement_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/placement"
	"repro/internal/soc"
)

// pinnedMPUPlacementHash is the FNV-64a hash of the default MPU's
// placement: every node's X and then Y bits, little-endian, in id
// order. It was recorded from the sort.Slice legalization; a change to
// Place must reproduce every coordinate.
const pinnedMPUPlacementHash = 0x9faa687bef44035b

// TestDefaultMPUPlacementPinned holds the default MPU's placement to the
// recorded hash and to the sort.Slice legalization.
func TestDefaultMPUPlacementPinned(t *testing.T) {
	mpu, err := soc.BuildMPU(soc.DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := placement.Place(mpu.Netlist).Points()
	if want := placement.PlaceSortSlice(mpu.Netlist); !slices.Equal(got, want) {
		t.Error("MPU placement differs from the sort.Slice legalization")
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, pt := range got {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pt.X))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pt.Y))
		h.Write(buf[:])
	}
	if sum := h.Sum64(); sum != pinnedMPUPlacementHash {
		t.Fatalf("MPU placement hash %#x, pinned %#x (%d nodes)", sum, uint64(pinnedMPUPlacementHash), len(got))
	}
}
