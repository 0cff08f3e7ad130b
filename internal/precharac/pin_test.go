package precharac

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// pinnedCharacterizationHash is the FNV-64a hash of characterizationHash
// over the default SoC characterized with DefaultOptions(). It was
// recorded from the one-injection-per-replay lifetime campaign and the
// per-(depth, node) correlation loop; any later change to set-up must
// reproduce every value bit for bit.
const pinnedCharacterizationHash = 0xed8c464d425e0c4c

// characterizationHash folds every per-register result and every
// correlation entry into one FNV-64a hash: each Regs entry in register
// order (id, Lifetime and Contamination bits, MemoryType), then every
// corrFanin and corrFanout value's bits, depth by depth.
func characterizationHash(c *Characterization) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	regs := make([]netlist.NodeID, 0, len(c.Regs))
	//maporder-ok (sorted below)
	for r := range c.Regs {
		regs = append(regs, r)
	}
	slices.Sort(regs)
	for _, r := range regs {
		rc := c.Regs[r]
		word(uint64(rc.Reg))
		word(math.Float64bits(rc.Lifetime))
		word(math.Float64bits(rc.Contamination))
		mem := byte(0)
		if rc.MemoryType {
			mem = 1
		}
		h.Write([]byte{mem})
	}
	for _, side := range [][][]float64{c.corrFanin, c.corrFanout} {
		for _, layer := range side {
			for _, v := range layer {
				word(math.Float64bits(v))
			}
		}
	}
	return h.Sum64()
}

// TestDefaultCharacterizationPinned holds the default characterization
// to bit-identity: every register's lifetime, contamination and class
// and every correlation entry must hash to the recorded value.
func TestDefaultCharacterizationPinned(t *testing.T) {
	c, err := Characterize(synthSoC(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := characterizationHash(c); got != pinnedCharacterizationHash {
		t.Fatalf("characterization hash %#x, pinned %#x (%d registers)", got, uint64(pinnedCharacterizationHash), len(c.Regs))
	}
}
