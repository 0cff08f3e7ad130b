// Compiled evaluation plan: the struct-of-arrays representation of a
// netlist's per-cycle work. Compilation happens once per netlist; the
// plan is immutable afterwards and shared by every Simulator fork over
// the same design, so the per-cycle hot path walks flat index arrays
// instead of chasing *netlist.Node pointers and per-cell fanin slices.
package logicsim

import (
	"fmt"

	"repro/internal/modelcheck"
	"repro/internal/netlist"
)

// Internal plan opcodes. Two-input gates get specialized codes so the
// evaluator's common case (the vast majority of gates in synthesized
// logic) is a single masked load pair and one logic op, with no inner
// fanin loop.
const (
	opConst0 = iota
	opConst1
	opBuf
	opInv
	opAnd2
	opAndN
	opNand2
	opNandN
	opOr2
	opOrN
	opNor2
	opNorN
	opXor2
	opXorN
	opXnor2
	opXnorN
	opMux2
)

// Packed-op field layout (one uint64 per combinational node, in
// topological order):
//
//	bits  0..23  output node index (24 bits)
//	bits 24..29  opcode (6 bits)
//	bits 30..39  fanin count (10 bits)
//	bits 40..63  fanin-pool offset (24 bits)
const (
	opOutBits  = 24
	opCodeBits = 6
	opNinBits  = 10
	opOffBits  = 24

	opOutMask  = 1<<opOutBits - 1
	opCodeMask = 1<<opCodeBits - 1
	opNinMask  = 1<<opNinBits - 1

	opCodeShift = opOutBits
	opNinShift  = opOutBits + opCodeBits
	opOffShift  = opOutBits + opCodeBits + opNinBits
)

// Plan is a netlist compiled to flat index-based arrays: the
// combinational op stream in topological order, a contiguous fanin
// index pool, and the register latch schedule. A Plan is immutable
// after Compile and safe to share across any number of simulator
// forks — only value state is per-simulator.
type Plan struct {
	numNodes int
	// ops is the linearized combinational schedule; see the packed-op
	// field layout above.
	ops []uint64
	// pool holds every op's fanin node indices back to back; an op's
	// fanins are pool[off : off+nin].
	pool []int32
	// regs are the DFF node indices in netlist.Regs order; regSrc[i]
	// is regs[i]'s data fanin.
	regs   []int32
	regSrc []int32
	// The latch schedule, derived from regs and regSrc: a register
	// whose data fanin is no register reads a node no latch writes, so
	// it is latched in place (vals[inPlace[k]] = vals[inPlaceSrc[k]]).
	// The registers fed by a register (viaScratch, with sources
	// viaScratchSrc) read their sources into scratch before any
	// register changes.
	inPlace, inPlaceSrc       []int32
	viaScratch, viaScratchSrc []int32
	// input is a bitset over node IDs marking the primary inputs.
	input []uint64
	// initHi lists the registers whose power-on value is 1.
	initHi []int32
	// maxFanin is the widest op in the plan (after any peephole
	// folding; the reference pointer-walking evaluator sizes its spill
	// buffer from the netlist itself).
	maxFanin int
	// hash is the cached content hash (see Hash), computed at Compile
	// so the immutable plan is never written after it is shared.
	hash uint64
	// gen is the registered straight-line evaluator bound to this
	// plan, or nil when Eval interprets the op stream.
	gen *Generated
}

// CompileOptions configures plan compilation.
type CompileOptions struct {
	// SkipPlanCheck disables the construction-time plan verification
	// (modelcheck.CheckPlan, the PL rule family). The guard is
	// errors-only and purely read-only — fixed-seed simulation results
	// are bit-identical either way — so the escape hatch exists for
	// tooling that wants to inspect a rejected plan (netlint -plan) and
	// for benchmarks of compilation itself, not for production use.
	SkipPlanCheck bool
	// noPeephole disables the compile-time peephole pass (buf-chain
	// elision and constant folding via modelcheck.FoldNetlist), which
	// only the equivalence tests do: the pass is exact, every node's
	// value is unchanged in every lane. The packed op stream (and
	// therefore Plan.Hash) differs between the two forms, so a plan
	// compiled without the pass never binds a generated evaluator.
	noPeephole bool
}

// Compile builds the evaluation plan for a netlist. The netlist must be
// valid and must not be mutated afterwards (the plan, like the cached
// topological order, is a snapshot of the structure). Compile fails if
// the design exceeds the packed-op field widths: 2^24 nodes, 2^24 total
// fanin references, or 2^10 fanins on one cell.
//
// The compiled plan is statically verified against the netlist before
// being returned (the PL rule family); see CompileOptions.SkipPlanCheck.
func Compile(nl *netlist.Netlist) (*Plan, error) {
	return CompileWithOptions(nl, CompileOptions{})
}

// CompileWithOptions is Compile with explicit options.
func CompileWithOptions(nl *netlist.Netlist, opts CompileOptions) (*Plan, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	nn := nl.NumNodes()
	if nn > opOutMask {
		return nil, fmt.Errorf("logicsim: %d nodes exceeds the %d-node plan limit", nn, opOutMask)
	}
	p := &Plan{
		numNodes: nn,
		ops:      make([]uint64, 0, len(order)),
	}
	// The peephole pass packs each op's canonical folded form instead
	// of the raw netlist cell: buf-chain fanins read the chain's root
	// slot, statically-constant nodes become Const ops, and identity
	// constant operands are dropped (specializing the opcode when the
	// fanin list shrinks to the two-input fast path). Every node keeps
	// exactly one op computing its exact value, so results are
	// bit-identical and the PL verifier accepts either form.
	var fold *modelcheck.Fold
	if !opts.noPeephole {
		fold = modelcheck.FoldNetlist(nl)
	}
	for _, id := range order {
		node := nl.Node(id)
		cell, fanin := node.Type, node.Fanin
		if fold != nil {
			cell, fanin = fold.Expected(id)
		}
		nin := len(fanin)
		if nin > opNinMask {
			return nil, fmt.Errorf("logicsim: node %d has %d fanins, plan limit is %d", id, nin, opNinMask)
		}
		if nin > p.maxFanin {
			p.maxFanin = nin
		}
		off := len(p.pool)
		if off+nin > 1<<opOffBits {
			return nil, fmt.Errorf("logicsim: fanin pool exceeds the %d-entry plan limit", 1<<opOffBits)
		}
		code, err := planOpcode(cell, nin)
		if err != nil {
			return nil, err
		}
		for _, f := range fanin {
			p.pool = append(p.pool, int32(f))
		}
		p.ops = append(p.ops, uint64(id)|
			uint64(code)<<opCodeShift|
			uint64(nin)<<opNinShift|
			uint64(off)<<opOffShift)
	}
	regs := nl.Regs()
	p.regs = make([]int32, len(regs))
	p.regSrc = make([]int32, len(regs))
	for i, r := range regs {
		node := nl.Node(r)
		p.regs[i] = int32(r)
		p.regSrc[i] = int32(node.Fanin[0])
		if node.Init {
			p.initHi = append(p.initHi, int32(r))
		}
		if nl.Node(node.Fanin[0]).Type == netlist.DFF {
			p.viaScratch = append(p.viaScratch, p.regs[i])
			p.viaScratchSrc = append(p.viaScratchSrc, p.regSrc[i])
		} else {
			p.inPlace = append(p.inPlace, p.regs[i])
			p.inPlaceSrc = append(p.inPlaceSrc, p.regSrc[i])
		}
	}
	p.input = make([]uint64, (nn+63)/64)
	for _, id := range nl.Inputs() {
		p.input[id>>6] |= 1 << uint(id&63)
	}
	if !opts.SkipPlanCheck {
		// Construction-time guard: the plan is about to be shared
		// immutably by every fork, so any Error-severity PL finding
		// rejects it here. The check reads the plan and netlist only —
		// results are bit-identical with the guard on or off.
		if err := modelcheck.CheckPlan(nl, p.View()).Err(modelcheck.Error); err != nil {
			return nil, fmt.Errorf("logicsim: compiled plan failed static verification: %w", err)
		}
	}
	// Hash eagerly (the plan is about to be shared immutably across
	// forks) and bind a registered straight-line evaluator when one
	// matches; on any mismatch the plan stays interpreted.
	p.Hash()
	p.gen = generatedFor(p)
	return p, nil
}

// planOpcode maps a cell type (and fanin count) to its plan opcode.
func planOpcode(t netlist.CellType, nin int) (uint64, error) {
	two := nin == 2
	switch t {
	case netlist.Const0:
		return opConst0, nil
	case netlist.Const1:
		return opConst1, nil
	case netlist.Buf:
		return opBuf, nil
	case netlist.Inv:
		return opInv, nil
	case netlist.And:
		if two {
			return opAnd2, nil
		}
		return opAndN, nil
	case netlist.Nand:
		if two {
			return opNand2, nil
		}
		return opNandN, nil
	case netlist.Or:
		if two {
			return opOr2, nil
		}
		return opOrN, nil
	case netlist.Nor:
		if two {
			return opNor2, nil
		}
		return opNorN, nil
	case netlist.Xor:
		if two {
			return opXor2, nil
		}
		return opXorN, nil
	case netlist.Xnor:
		if two {
			return opXnor2, nil
		}
		return opXnorN, nil
	case netlist.Mux2:
		return opMux2, nil
	default:
		return 0, fmt.Errorf("logicsim: cell type %v has no plan opcode", t)
	}
}

// NumNodes returns the node count of the compiled netlist (the length
// of a compatible value array).
func (p *Plan) NumNodes() int { return p.numNodes }

// NumRegs returns the number of registers in the latch schedule.
func (p *Plan) NumRegs() int { return len(p.regs) }

// Eval runs the combinational op stream over a flat 64-lane value
// array indexed by NodeID. When the plan is bound to a registered
// straight-line evaluator (see RegisterGenerated) that code runs
// instead of the interpreter; the two are bit-identical by
// construction and by the codegen equivalence fuzz target.
func (p *Plan) Eval(vals []uint64) {
	if g := p.gen; g != nil {
		g.Eval(vals)
		return
	}
	p.EvalInterpreted(vals)
}

// EvalInterpreted runs the interpreted op stream unconditionally,
// bypassing any bound generated evaluator. It is the SoA replacement
// for the pointer-walking sweep: per op it decodes four packed fields
// and reads/writes vals directly through the fanin pool. Exposed as
// the equivalence oracle for generated code.
func (p *Plan) EvalInterpreted(vals []uint64) {
	pool := p.pool
	//hot
	for _, op := range p.ops {
		out := op & opOutMask
		off := op >> opOffShift
		switch op >> opCodeShift & opCodeMask {
		case opAnd2:
			vals[out] = vals[pool[off]] & vals[pool[off+1]]
		case opNand2:
			vals[out] = ^(vals[pool[off]] & vals[pool[off+1]])
		case opOr2:
			vals[out] = vals[pool[off]] | vals[pool[off+1]]
		case opNor2:
			vals[out] = ^(vals[pool[off]] | vals[pool[off+1]])
		case opXor2:
			vals[out] = vals[pool[off]] ^ vals[pool[off+1]]
		case opXnor2:
			vals[out] = ^(vals[pool[off]] ^ vals[pool[off+1]])
		case opInv:
			vals[out] = ^vals[pool[off]]
		case opBuf:
			vals[out] = vals[pool[off]]
		case opMux2:
			a, b, sel := vals[pool[off]], vals[pool[off+1]], vals[pool[off+2]]
			vals[out] = (a &^ sel) | (b & sel)
		case opConst0:
			vals[out] = 0
		case opConst1:
			vals[out] = AllLanes
		case opAndN:
			fan := pool[off : off+(op>>opNinShift&opNinMask)]
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v &= vals[f]
			}
			vals[out] = v
		case opNandN:
			fan := pool[off : off+(op>>opNinShift&opNinMask)]
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v &= vals[f]
			}
			vals[out] = ^v
		case opOrN:
			fan := pool[off : off+(op>>opNinShift&opNinMask)]
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v |= vals[f]
			}
			vals[out] = v
		case opNorN:
			fan := pool[off : off+(op>>opNinShift&opNinMask)]
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v |= vals[f]
			}
			vals[out] = ^v
		case opXorN:
			fan := pool[off : off+(op>>opNinShift&opNinMask)]
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v ^= vals[f]
			}
			vals[out] = v
		case opXnorN:
			fan := pool[off : off+(op>>opNinShift&opNinMask)]
			v := vals[fan[0]]
			for _, f := range fan[1:] {
				v ^= vals[f]
			}
			vals[out] = ^v
		}
	}
}

// Latch advances every register over a flat value array. Registers fed
// by a register first read their sources into scratch (at least one
// word per such register; NumRegs words always suffice), so same-cycle
// register reads stay consistent; every other register reads a node no
// latch writes and is copied in place, in one pass.
func (p *Plan) Latch(vals, scratch []uint64) {
	//hot
	for i, src := range p.viaScratchSrc {
		scratch[i] = vals[src]
	}
	src := p.inPlaceSrc[:len(p.inPlace)]
	//hot
	for i, r := range p.inPlace {
		vals[r] = vals[src[i]]
	}
	//hot
	for i, r := range p.viaScratch {
		vals[r] = scratch[i]
	}
}

// isInput reports whether a node is a primary input.
func (p *Plan) isInput(id netlist.NodeID) bool {
	return uint(id) < uint(p.numNodes) && p.input[id>>6]>>uint(id&63)&1 == 1
}

// Reset clears a value array to power-on state: all nets 0, registers
// with a declared init value raised in every lane.
func (p *Plan) Reset(vals []uint64) {
	clear(vals)
	for _, r := range p.initHi {
		vals[r] = AllLanes
	}
}
