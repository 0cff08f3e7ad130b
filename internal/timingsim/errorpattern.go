package timingsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netlist"
)

// PatternClass buckets a latched bit-error pattern the way Fig 7(a) of
// the paper does: by how far the flipped bits spread across the byte
// structure of the architectural registers.
type PatternClass int

// Pattern classes.
const (
	NoError PatternClass = iota
	SingleBit
	SingleByte // more than one bit, all within one byte of one register
	MultiByte  // bits across multiple bytes or multiple registers
)

// String returns the display name used in reports.
func (p PatternClass) String() string {
	switch p {
	case NoError:
		return "none"
	case SingleBit:
		return "single-bit"
	case SingleByte:
		return "single-byte"
	case MultiByte:
		return "multi-byte"
	default:
		return fmt.Sprintf("PatternClass(%d)", int(p))
	}
}

// RegisterLayout maps individual DFF nodes back to (register word, bit
// index) so flipped-bit sets can be classified against byte boundaries.
type RegisterLayout struct {
	loc map[netlist.NodeID]regBit
}

type regBit struct {
	group string
	bit   int
}

// NewRegisterLayout indexes the register groups produced by the HDL
// builder (word name -> DFF bits, LSB first).
func NewRegisterLayout(groups map[string][]netlist.NodeID) *RegisterLayout {
	l := &RegisterLayout{loc: make(map[netlist.NodeID]regBit)}
	for name, bits := range groups {
		for i, id := range bits {
			l.loc[id] = regBit{group: name, bit: i}
		}
	}
	return l
}

// Classify buckets a set of flipped registers. Flipped bits that are not
// part of any known register word each count as their own byte.
func (l *RegisterLayout) Classify(flipped []netlist.NodeID) PatternClass {
	switch len(flipped) {
	case 0:
		return NoError
	case 1:
		return SingleBit
	}
	type byteKey struct {
		group string
		byteN int
	}
	bytes := make(map[byteKey]bool)
	for _, id := range flipped {
		rb, ok := l.loc[id]
		if !ok {
			rb = regBit{group: fmt.Sprintf("~%d", id), bit: 0}
		}
		bytes[byteKey{rb.group, rb.bit / 8}] = true
	}
	if len(bytes) == 1 {
		return SingleByte
	}
	return MultiByte
}

// PatternKey returns a canonical signature for a flipped-register set,
// used to count distinct error patterns (Fig 7(b)).
func PatternKey(flipped []netlist.NodeID) string {
	if len(flipped) == 0 {
		return ""
	}
	ids := append([]netlist.NodeID(nil), flipped...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", id)
	}
	return sb.String()
}
