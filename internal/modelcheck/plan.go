// Plan-IR verification: the PL rule family statically checks a compiled
// logicsim evaluation plan against its source netlist. The plan is the
// least inspectable artifact in the stack — a packed op stream plus flat
// index arrays, shared immutably by every simulator fork — so the
// verifier re-derives every structural invariant the evaluators rely on
// instead of trusting the compiler: one op per combinational node,
// opcodes matching cell types, every index in bounds, fanins defined
// before use, no two ops writing one value slot, no op writing
// input/register slots, the latch schedule mirroring the netlist's
// registers, and consistent sizing fields.
//
// The checker works on a PlanView — a decoded, plain-data snapshot of
// the plan — rather than on logicsim's packed representation, so this
// package never imports logicsim (logicsim imports modelcheck to run
// the construction-time guard) and tests can corrupt views field by
// field without touching bit packing.
package modelcheck

import (
	"fmt"

	"repro/internal/netlist"
)

// Plan-IR check IDs (the PL family). All are Error severity except
// IDPlanNonCanonical notes inside PL002 and the unreachable-op rule
// PL009, which reports Error because it is a plan-vs-netlist
// inconsistency, not a design smell (netlist-level dead logic is
// NL005's business).
const (
	// IDPlanCoverage — the op stream does not cover the netlist's
	// combinational nodes one-to-one: some combinational node is never
	// computed by any op.
	IDPlanCoverage = "PL001"
	// IDPlanOpcode — an op's opcode disagrees with its node's cell
	// type, decodes to no known cell at all, or its encoded arity is
	// inconsistent with the opcode (Error); or a two-fanin gate uses
	// the variable-fanin encoding instead of its specialized two-input
	// opcode (Warn: semantically equal but non-canonical, so the plan
	// was not produced by the compiler).
	IDPlanOpcode = "PL002"
	// IDPlanBounds — an index escapes its array: an op's output node,
	// its fanin-pool span, or a pooled fanin index is out of bounds.
	IDPlanBounds = "PL003"
	// IDPlanUseBeforeDef — an op reads a combinational value that no
	// earlier op has computed (including reading its own output): the
	// op stream violates topological order.
	IDPlanUseBeforeDef = "PL004"
	// IDPlanAliasing — two ops write the same value slot. Eval would
	// silently keep only the later result, and the evaluation order
	// contract (one definition per net) is broken.
	IDPlanAliasing = "PL005"
	// IDPlanStateWrite — an op's output slot is a primary input or a
	// register. Those slots are owned by the driver and latch phases;
	// an op writing one makes Eval non-idempotent and corrupts the
	// state that Fork-shared plans promise never to touch.
	IDPlanStateWrite = "PL006"
	// IDPlanFaninMismatch — an op's decoded fanin list differs from
	// its netlist node's fanins (count or element-wise, in order).
	IDPlanFaninMismatch = "PL007"
	// IDPlanLatchSchedule — the latch schedule disagrees with the
	// netlist: regs is not exactly netlist.Regs in order, a regSrc is
	// not its register's D fanin, the init-high set does not match the
	// declared power-on values, or a schedule entry is out of range.
	IDPlanLatchSchedule = "PL008"
	// IDPlanUnreachable — dead/unreachable op: an op computes a value
	// that nothing in the plan consumes (no later op fanin, no latch
	// source, no primary output) even though the netlist says the node
	// is consumed. The compile dropped or corrupted a consumer.
	IDPlanUnreachable = "PL009"
	// IDPlanSizing — sizing inconsistency: the plan's node count
	// disagrees with the netlist (every value array is sized
	// NumNodes), a count exceeds the packed-op field widths, or
	// MaxFanin understates the widest op (the reference evaluator
	// sizes its spill buffer from it).
	IDPlanSizing = "PL010"
)

// Packed-op field capacities, mirrored from logicsim's plan encoding:
// 24-bit output index, 10-bit fanin count, 24-bit pool offset. The
// verifier re-checks them so a hand-built or corrupted plan that could
// not round-trip through the packed encoding is rejected.
const (
	planMaxNodes    = 1 << 24
	planMaxPool     = 1 << 24
	planMaxOpFanins = 1<<10 - 1
)

// PlanOp is one decoded op of a compiled plan.
type PlanOp struct {
	// Out is the value slot the op writes (the combinational node it
	// computes).
	Out netlist.NodeID
	// Cell is the cell type the opcode decodes to; CellOK is false
	// when the opcode matches no known cell (Cell is then meaningless).
	Cell   netlist.CellType
	CellOK bool
	// Arity is the fanin count fixed by the opcode, or -1 for the
	// variable-fanin encodings (which read Nin fanins).
	Arity int
	// Nin is the encoded fanin-count field.
	Nin int
	// PoolOff is the encoded fanin-pool offset.
	PoolOff int
	// Fanin is the decoded fanin list — the PoolOff-based slice of the
	// fanin pool the evaluator would read — or nil when the span does
	// not fit the pool (reported as PL003).
	Fanin []netlist.NodeID
}

// effFanins is the number of pool entries the evaluator reads for this
// op: the opcode's fixed arity, or the encoded count for the
// variable-fanin opcodes.
func (o *PlanOp) effFanins() int {
	if o.Arity >= 0 {
		return o.Arity
	}
	return o.Nin
}

// PlanView is a decoded, plain-data snapshot of a compiled evaluation
// plan, produced by logicsim's Plan.View. CheckPlan verifies it against
// the source netlist.
type PlanView struct {
	// NumNodes is the node count the plan's value arrays are sized for.
	NumNodes int
	// PoolSize is the length of the fanin index pool.
	PoolSize int
	// MaxFanin is the plan's recorded widest fanin count.
	MaxFanin int
	// Ops is the combinational op stream in execution order.
	Ops []PlanOp
	// Regs, RegSrc, and InitHi are the latch schedule: register node
	// ids, their data fanins (index-aligned with Regs), and the
	// registers whose power-on value is 1.
	Regs, RegSrc, InitHi []netlist.NodeID
}

// CheckPlan verifies a compiled plan view against its source netlist
// and returns the PL-family findings. The netlist is the reference: it
// should itself be clean (CheckNetlist) for the results to be
// meaningful, but CheckPlan only assumes it is structurally sound
// enough to index (as guaranteed by netlist construction).
//
// Per-op rules accept two forms: the raw netlist form (opcode and
// fanin list exactly as declared) and the canonical folded form
// (FoldNetlist: buf-chain redirection, constant folding, identity
// operand elimination). The verifier re-derives the fold from the
// netlist itself, so a plan claiming a rewrite the fold does not
// produce is still rejected.
func CheckPlan(n *netlist.Netlist, v PlanView) *Report {
	r := &Report{}
	nn := n.NumNodes()
	if v.NumNodes != nn {
		r.add(n, Finding{ID: IDPlanSizing, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("plan sized for %d nodes but the netlist has %d: every value array would be mis-sized", v.NumNodes, nn)})
	}
	if v.NumNodes > planMaxNodes {
		r.add(n, Finding{ID: IDPlanSizing, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("%d nodes exceeds the %d-node packed-op limit", v.NumNodes, planMaxNodes)})
	}
	if v.PoolSize > planMaxPool {
		r.add(n, Finding{ID: IDPlanSizing, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("fanin pool of %d entries exceeds the %d-entry packed-op limit", v.PoolSize, planMaxPool)})
	}

	checkPlanOps(n, v, r)
	checkPlanLatch(n, v, r)
	return r
}

// checkPlanOps runs the per-op and whole-stream rules: PL001–PL007,
// PL009, and the op-level parts of PL010.
func checkPlanOps(n *netlist.Netlist, v PlanView, r *Report) {
	nn := n.NumNodes()
	fold := FoldNetlist(n)
	// defined[i] — node i's value slot is readable at the current point
	// of the stream: inputs and registers are defined by the driver and
	// latch phases before Eval runs; combinational slots become defined
	// when their op executes.
	defined := make([]bool, nn)
	writer := make([]int, nn) // op index that wrote the slot, or -1
	for i := range writer {
		writer[i] = -1
	}
	for id := 0; id < nn; id++ {
		if !n.Node(netlist.NodeID(id)).Type.IsCombinational() {
			defined[id] = true
		}
	}
	// consumed[i] — some op (or the latch schedule, checked by the
	// caller via latchConsumes) reads node i's value. Used by PL009.
	consumed := make([]bool, nn)
	maxEff := 0

	for i := range v.Ops {
		op := &v.Ops[i]
		if op.Out < 0 || int(op.Out) >= nn || int(op.Out) >= v.NumNodes {
			r.add(n, Finding{ID: IDPlanBounds, Sev: Error, Node: netlist.Invalid,
				Msg: fmt.Sprintf("op %d writes node %d, outside the %d-node value array", i, op.Out, minInt(nn, v.NumNodes))})
			continue
		}
		node := n.Node(op.Out)
		if !node.Type.IsCombinational() {
			r.add(n, Finding{ID: IDPlanStateWrite, Sev: Error, Node: op.Out,
				Msg: fmt.Sprintf("op %d writes the %v slot of node %d: input and register slots are owned by the driver/latch phases, not Eval", i, node.Type, op.Out)})
			continue
		}
		if writer[op.Out] >= 0 {
			r.add(n, Finding{ID: IDPlanAliasing, Sev: Error, Node: op.Out,
				Msg: fmt.Sprintf("ops %d and %d both write node %d", writer[op.Out], i, op.Out)})
		} else {
			writer[op.Out] = i
		}

		foldCell, foldFanin := fold.Expected(op.Out)
		opcodeOK := checkPlanOpcode(n, i, op, node, foldCell, r)

		eff := op.effFanins()
		if eff > maxEff {
			maxEff = eff
		}
		if op.PoolOff < 0 || eff < 0 || op.PoolOff+eff > v.PoolSize {
			r.add(n, Finding{ID: IDPlanBounds, Sev: Error, Node: op.Out,
				Msg: fmt.Sprintf("op %d fanin span [%d,%d) escapes the %d-entry pool", i, op.PoolOff, op.PoolOff+eff, v.PoolSize)})
			defined[op.Out] = true
			continue
		}
		if len(op.Fanin) != eff {
			r.add(n, Finding{ID: IDPlanBounds, Sev: Error, Node: op.Out,
				Msg: fmt.Sprintf("op %d decoded %d fanins where the encoding reads %d", i, len(op.Fanin), eff)})
			defined[op.Out] = true
			continue
		}

		faninsOK := true
		for j, f := range op.Fanin {
			if f < 0 || int(f) >= nn || int(f) >= v.NumNodes {
				r.add(n, Finding{ID: IDPlanBounds, Sev: Error, Node: op.Out,
					Msg: fmt.Sprintf("op %d fanin %d reads node %d, outside the %d-node value array", i, j, f, minInt(nn, v.NumNodes))})
				faninsOK = false
				continue
			}
			if !defined[f] {
				r.add(n, Finding{ID: IDPlanUseBeforeDef, Sev: Error, Node: op.Out,
					Msg: fmt.Sprintf("op %d reads node %d before any op computes it: the stream violates topological order", i, f)})
			}
			consumed[f] = true
		}
		// Fanin-list equivalence only when the opcode checks passed —
		// a wrong opcode already explains an arity difference. Either
		// translation is acceptable: the raw netlist fanins (with the
		// raw cell type), or the canonical folded form (with the
		// folded cell type). Mixing the two is not.
		if faninsOK && opcodeOK {
			direct := op.Cell == node.Type && faninsEqual(op.Fanin, node.Fanin)
			folded := op.Cell == foldCell && faninsEqual(op.Fanin, foldFanin)
			if !direct && !folded {
				if len(op.Fanin) != len(node.Fanin) && len(op.Fanin) != len(foldFanin) {
					r.add(n, Finding{ID: IDPlanFaninMismatch, Sev: Error, Node: op.Out,
						Msg: fmt.Sprintf("op %d has %d fanins, node %d has %d (folded form has %d)", i, len(op.Fanin), op.Out, len(node.Fanin), len(foldFanin))})
				} else {
					r.add(n, Finding{ID: IDPlanFaninMismatch, Sev: Error, Node: op.Out,
						Msg: fmt.Sprintf("op %d fanin list %v matches neither node %d's netlist fanins %v nor its folded form %v", i, op.Fanin, op.Out, node.Fanin, foldFanin)})
				}
			}
		}
		defined[op.Out] = true
	}

	// PL001: every combinational node must have exactly one op
	// (duplicates were PL005 above; here the missing ones).
	for id := 0; id < nn; id++ {
		if n.Node(netlist.NodeID(id)).Type.IsCombinational() && writer[id] < 0 {
			r.add(n, Finding{ID: IDPlanCoverage, Sev: Error, Node: netlist.NodeID(id),
				Msg: fmt.Sprintf("combinational node %d (%v) is computed by no op", id, n.Node(netlist.NodeID(id)).Type)})
		}
	}

	// PL009: an op whose value the plan never consumes although the
	// folded form of the netlist still needs the node — the compile
	// lost a consumer. Plan consumers are op fanins (collected above),
	// latch sources, and primary outputs. The expectation is the
	// folded consumption set rather than the raw fanout edges: a Buf
	// in the middle of an elided chain, or an identity-constant
	// operand, legitimately loses all its plan readers (its op still
	// writes its slot for observability).
	for _, src := range v.RegSrc {
		if src >= 0 && int(src) < nn {
			consumed[src] = true
		}
	}
	for _, port := range n.Outputs() {
		if port.Node >= 0 && int(port.Node) < nn {
			consumed[port.Node] = true
		}
	}
	expConsumed := fold.ExpectedConsumed()
	for id := 0; id < nn; id++ {
		node := n.Node(netlist.NodeID(id))
		if node.Type == netlist.DFF {
			// The latch schedule reads D fanins raw (it is never
			// folded), so registers keep their netlist-level
			// consumption expectation.
			for _, f := range node.Fanin {
				if f >= 0 && int(f) < nn {
					expConsumed[f] = true
				}
			}
		}
		if node.Type == netlist.DFF && node.En != netlist.Invalid &&
			node.En >= 0 && int(node.En) < nn {
			// Enables are read by the timed simulator, not the plan's
			// zero-delay evaluators (the hold path is structural via a
			// mux on D), so an enable net consumed only here must still
			// be computed by the plan — count it as plan-consumed too.
			expConsumed[node.En] = true
			consumed[node.En] = true
		}
	}
	for _, port := range n.Outputs() {
		if port.Node >= 0 && int(port.Node) < nn {
			expConsumed[port.Node] = true
		}
	}
	for id := 0; id < nn; id++ {
		if writer[id] >= 0 && expConsumed[id] && !consumed[id] {
			r.add(n, Finding{ID: IDPlanUnreachable, Sev: Error, Node: netlist.NodeID(id),
				Msg: fmt.Sprintf("op %d computes node %d but nothing in the plan consumes it, although the netlist's folded form does: a consumer was dropped", writer[id], id)})
		}
	}

	// PL010 op-level sizing: the recorded MaxFanin sizes the reference
	// evaluator's spill buffer and must dominate every op.
	if maxEff > v.MaxFanin {
		r.add(n, Finding{ID: IDPlanSizing, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("MaxFanin %d understates the widest op (%d fanins): the reference evaluator's spill buffer would be too small", v.MaxFanin, maxEff)})
	}
	if maxEff > planMaxOpFanins {
		r.add(n, Finding{ID: IDPlanSizing, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("an op has %d fanins, exceeding the %d-fanin packed-op field", maxEff, planMaxOpFanins)})
	}
}

// checkPlanOpcode runs PL002 for one op and reports whether the opcode
// and its arity encoding are trustworthy enough for fanin comparison.
// foldCell is the cell type of the node's canonical folded form, which
// is as acceptable as the raw netlist type (the fanin comparison pins
// down which of the two translations the op must then follow).
func checkPlanOpcode(n *netlist.Netlist, i int, op *PlanOp, node *netlist.Node, foldCell netlist.CellType, r *Report) bool {
	if !op.CellOK {
		r.add(n, Finding{ID: IDPlanOpcode, Sev: Error, Node: op.Out,
			Msg: fmt.Sprintf("op %d carries an opcode that decodes to no cell type", i)})
		return false
	}
	if op.Cell != node.Type && op.Cell != foldCell {
		r.add(n, Finding{ID: IDPlanOpcode, Sev: Error, Node: op.Out,
			Msg: fmt.Sprintf("op %d computes %v but node %d is %v (folded form %v)", i, op.Cell, op.Out, node.Type, foldCell)})
		return false
	}
	if op.Arity >= 0 && op.Nin != op.Arity {
		r.add(n, Finding{ID: IDPlanOpcode, Sev: Error, Node: op.Out,
			Msg: fmt.Sprintf("op %d encodes %d fanins but its %v opcode reads exactly %d", i, op.Nin, op.Cell, op.Arity)})
		return false
	}
	if op.Arity < 0 && op.Nin == 2 {
		r.add(n, Finding{ID: IDPlanOpcode, Sev: Warn, Node: op.Out,
			Msg: fmt.Sprintf("op %d uses the variable-fanin %v encoding for 2 fanins where the compiler emits the specialized two-input opcode", i, op.Cell)})
	}
	return true
}

// checkPlanLatch runs PL008: the latch schedule must mirror the
// netlist's register list exactly.
func checkPlanLatch(n *netlist.Netlist, v PlanView, r *Report) {
	nn := n.NumNodes()
	if len(v.RegSrc) != len(v.Regs) {
		r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("latch schedule has %d regs but %d sources", len(v.Regs), len(v.RegSrc))})
	}
	regs := n.Regs()
	if len(v.Regs) != len(regs) {
		r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("latch schedule covers %d registers, netlist has %d", len(v.Regs), len(regs))})
	}
	initHi := make(map[netlist.NodeID]bool, len(v.InitHi))
	for _, id := range v.InitHi {
		initHi[id] = true
	}
	for i, reg := range v.Regs {
		if reg < 0 || int(reg) >= nn {
			r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: netlist.Invalid,
				Msg: fmt.Sprintf("latch schedule entry %d targets node %d, outside the netlist", i, reg)})
			continue
		}
		node := n.Node(reg)
		if node.Type != netlist.DFF {
			r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: reg,
				Msg: fmt.Sprintf("latch schedule entry %d targets node %d (%v), not a register", i, reg, node.Type)})
			continue
		}
		if i < len(regs) && regs[i] != reg {
			r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: reg,
				Msg: fmt.Sprintf("latch schedule entry %d is node %d, netlist register order has node %d", i, reg, regs[i])})
		}
		if i < len(v.RegSrc) {
			src := v.RegSrc[i]
			if src < 0 || int(src) >= nn {
				r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: reg,
					Msg: fmt.Sprintf("latch source %d targets node %d, outside the netlist", i, src)})
			} else if len(node.Fanin) > 0 && src != node.Fanin[0] {
				r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: reg,
					Msg: fmt.Sprintf("latch source %d reads node %d, register %d's D fanin is node %d", i, src, reg, node.Fanin[0])})
			}
		}
		if node.Init != initHi[reg] {
			want := "0"
			if node.Init {
				want = "1"
			}
			r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: reg,
				Msg: fmt.Sprintf("register %d powers on at %s in the netlist but the plan's init-high set disagrees", reg, want)})
		}
	}
	regSet := make(map[netlist.NodeID]bool, len(v.Regs))
	for _, reg := range v.Regs {
		regSet[reg] = true
	}
	for _, id := range v.InitHi {
		if !regSet[id] {
			r.add(n, Finding{ID: IDPlanLatchSchedule, Sev: Error, Node: id,
				Msg: fmt.Sprintf("init-high entry %d is not in the latch schedule", id)})
		}
	}
}

// faninsEqual reports element-wise equality of two fanin lists.
func faninsEqual(a, b []netlist.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
