// Generated-evaluator registry: per-netlist straight-line evaluators
// produced by cmd/gnlgen (internal/logicsim/codegen) register here
// under the hash of the compiled plan they were generated from, and
// Compile transparently binds a matching one to the plan it returns.
//
// The hash is the safety interlock: it covers every packed op, the
// whole fanin pool, and the full latch schedule, so a generated file
// that has gone stale against its netlist (different fold, different
// topo order, different design) simply never matches and the plan
// falls back to the interpreted Eval — stale generated code can slow
// the campaign down, never corrupt it. The CI drift job
// (`go generate ./... && git diff --exit-code`) keeps even that
// slowdown from landing.
package logicsim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Generated is a straight-line evaluator specialization of one
// compiled plan: the exact unrolled equivalent of the interpreted op
// stream over a flat 64-lane value array indexed by NodeID.
type Generated struct {
	// Hash is Plan.Hash() of the plan the code was generated from.
	Hash uint64
	// NumNodes is the node count the evaluator's value indexing was
	// generated for (a second, human-readable interlock next to Hash).
	NumNodes int
	// Eval evaluates the combinational op stream.
	Eval func(vals []uint64)
}

var (
	genMu       sync.Mutex
	genRegistry = map[uint64]*Generated{}
	genEnabled  atomic.Bool
)

func init() { genEnabled.Store(true) }

// RegisterGenerated adds a generated evaluator to the registry,
// keyed by its plan hash. It is meant to be called from the init
// function of a generated file; registering a second evaluator for
// the same hash replaces the first (latest wins, so a regenerated
// file shadows a stale twin during refactors).
func RegisterGenerated(g Generated) {
	if g.Eval == nil {
		panic(fmt.Sprintf("logicsim: RegisterGenerated(hash %#x) with no evaluator function", g.Hash))
	}
	genMu.Lock()
	defer genMu.Unlock()
	cp := g
	genRegistry[g.Hash] = &cp
}

// SetGeneratedEnabled toggles whether Compile binds registered
// generated evaluators to the plans it builds (default on), returning
// the previous setting. Plans compiled while disabled stay interpreted
// for their lifetime — that is how benchmarks and equivalence tests
// hold the interpreted baseline and the generated path side by side in
// one process. Already-compiled plans are unaffected.
func SetGeneratedEnabled(on bool) bool { return genEnabled.Swap(on) }

// generatedFor looks up a registered evaluator for a plan, applying
// the safety interlocks: hash match and node-count match.
func generatedFor(p *Plan) *Generated {
	if !genEnabled.Load() {
		return nil
	}
	genMu.Lock()
	g := genRegistry[p.Hash()]
	genMu.Unlock()
	if g == nil || g.NumNodes != p.numNodes {
		return nil
	}
	return g
}

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a parameters.
const (
	fnv1aOffset = 0xcbf29ce484222325
	fnv1aPrime  = 0x100000001b3
)

// hashWord folds one 64-bit word into an FNV-1a state byte by byte.
func hashWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w >> (8 * i) & 0xff
		h *= fnv1aPrime
	}
	return h
}

// Hash returns the content hash of the compiled plan: a 64-bit FNV-1a
// over the node count, the packed op stream, the fanin pool, and the
// complete latch schedule. Two plans share a hash exactly when every
// array the evaluators read is identical, so it is the registry key
// that pairs a plan with code generated from it.
func (p *Plan) Hash() uint64 {
	if p.hash != 0 {
		return p.hash
	}
	h := uint64(fnv1aOffset)
	h = hashWord(h, uint64(p.numNodes))
	h = hashWord(h, uint64(len(p.ops)))
	for _, op := range p.ops {
		h = hashWord(h, op)
	}
	h = hashWord(h, uint64(len(p.pool)))
	for _, f := range p.pool {
		h = hashWord(h, uint64(uint32(f)))
	}
	for _, r := range p.regs {
		h = hashWord(h, uint64(uint32(r)))
	}
	for _, s := range p.regSrc {
		h = hashWord(h, uint64(uint32(s)))
	}
	h = hashWord(h, uint64(len(p.initHi)))
	for _, r := range p.initHi {
		h = hashWord(h, uint64(uint32(r)))
	}
	if h == 0 {
		h = 1 // keep 0 as the "not yet computed" sentinel
	}
	p.hash = h
	return h
}

// Generated reports whether the plan is bound to a registered
// straight-line evaluator (and Eval therefore skips the interpreter).
func (p *Plan) Generated() bool { return p.gen != nil }
