package montecarlo

import (
	"math/rand"
	"slices"
	"testing"
)

// packLanesByLane is packLanes without the broadcast shortcut: every
// word packed lane by lane. It is packLanes' oracle.
func packLanesByLane(dst, from, shadow []uint64, src []uint8) {
	for i := range dst {
		f := from[i]
		w := -(shadow[i] >> shadowLane)
		for j, l := range src {
			w = w&^(1<<uint(j)) | (f>>l&1)<<uint(j)
		}
		dst[i] = w
	}
}

// TestPackLanesMatchesLaneByLane packs random register words from 1, 2,
// 17 and 63 source lanes, as resumeClasses does (from the lane
// simulator, with broadcast golden words as the shadow) and as
// splitGroup does (dst, from and shadow one slice), and requires the
// words of the lane-by-lane pack. Half the words have every source lane
// equal to the shadow lane, so both of packLanes' paths run.
func TestPackLanesMatchesLaneByLane(t *testing.T) {
	const words = 229 // the default MPU's registers
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 17, 63} {
		for trial := range 40 {
			src := make([]uint8, n)
			var mask uint64
			for j, l := range rng.Perm(64)[:n] {
				src[j] = uint8(l)
				mask |= 1 << uint(l)
			}
			// agree makes every source lane of w equal to lane
			// shadowLane of shadow on every other call.
			agree := func(w, shadow uint64) uint64 {
				if rng.Intn(2) == 0 {
					return w
				}
				return w&^mask | -(shadow>>shadowLane)&mask
			}
			from, golden := make([]uint64, words), make([]uint64, words)
			for i := range from {
				golden[i] = -(rng.Uint64() & 1)
				from[i] = agree(rng.Uint64(), golden[i])
			}
			want, got := make([]uint64, words), make([]uint64, words)
			packLanesByLane(want, from, golden, src)
			packLanes(got, from, golden, src)
			if !slices.Equal(got, want) {
				t.Fatalf("%d lanes, trial %d: packed %x, lane by lane %x", n, trial, got, want)
			}

			regs := make([]uint64, words)
			for i := range regs {
				regs[i] = rng.Uint64()
				regs[i] = agree(regs[i], regs[i])
			}
			packLanesByLane(want, regs, regs, src)
			packLanes(regs, regs, regs, src)
			if !slices.Equal(regs, want) {
				t.Fatalf("%d lanes, trial %d, aliased: packed %x, lane by lane %x", n, trial, regs, want)
			}
		}
	}
}
