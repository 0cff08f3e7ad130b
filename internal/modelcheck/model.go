package modelcheck

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/placement"
)

// Model bundles everything the model-level checks (MC0xx) need beyond
// the bare netlist. Every field except Netlist is optional; checks whose
// inputs are absent are skipped.
type Model struct {
	Netlist *netlist.Netlist
	// Place, when set, is verified for coverage and die-area bounds.
	Place *placement.Placement
	// Responding, when set, lists the responding-signal nodes whose
	// unrolled fanin cone the pre-characterization walks.
	Responding []netlist.NodeID
	// MaxDepth is the unroll window of the pre-characterization; used
	// with Responding for the cone-escape check. Zero skips it.
	MaxDepth int
}

// CheckModel runs the netlist-structural checks plus every model-level
// check the Model provides inputs for.
func CheckModel(m Model) *Report {
	return CheckModelFrom(CheckNetlist(m.Netlist), m)
}

// CheckModelFrom is CheckModel for a netlist whose structural report is
// known: nr must be CheckNetlist(m.Netlist). It returns a new report
// with nr's findings followed by the model-level ones and leaves nr
// unchanged, so one structural report serves every model of a netlist.
func CheckModelFrom(nr *Report, m Model) *Report {
	r := &Report{Findings: slices.Clone(nr.Findings)}
	// Model-level checks need sound node references; if the structural
	// pass found dangling refs, traversals below would index out of
	// range.
	for _, f := range r.Findings {
		if f.ID == IDDanglingRef {
			return r
		}
	}
	if m.Place != nil {
		r.Findings = append(r.Findings, CheckPlacement(m.Netlist, m.Place)...)
	}
	if len(m.Responding) > 0 {
		r.Findings = append(r.Findings, checkResponding(m.Netlist, m.Responding)...)
		// The cone walk indexes nodes by the responding ids, so an id
		// that MC003 found out of range skips it.
		inRange := true
		for _, rs := range m.Responding {
			inRange = inRange && rs >= 0 && int(rs) < m.Netlist.NumNodes()
		}
		if m.MaxDepth > 0 && inRange {
			r.Findings = append(r.Findings, CheckConeWindow(m.Netlist, m.Responding, m.MaxDepth)...)
		}
	}
	return r
}

// CheckPlacement verifies MC001/MC002: the placement covers the netlist
// one-to-one and every coordinate lies inside the die area.
func CheckPlacement(n *netlist.Netlist, p *placement.Placement) []Finding {
	var out []Finding
	if got := p.NumPlaced(); got != n.NumNodes() {
		out = append(out, Finding{ID: IDPlaceCoverage, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("placement covers %d nodes, netlist has %d", got, n.NumNodes())})
		return out
	}
	w, h := p.Bounds()
	for i := 0; i < n.NumNodes(); i++ {
		id := netlist.NodeID(i)
		pt := p.At(id)
		if pt.X < 0 || pt.Y < 0 || pt.X > w || pt.Y > h {
			f := Finding{ID: IDPlaceOutOfDie, Sev: Error, Node: id,
				Msg: fmt.Sprintf("placed at (%g, %g) outside die [0,%g]x[0,%g]", pt.X, pt.Y, w, h)}
			if name := n.Node(id).Name; name != "" {
				f.Name = name
			}
			out = append(out, f)
		}
	}
	return out
}

// checkResponding verifies MC003: every responding signal exists and is
// a register (the paper's responding signals are latched decisions).
func checkResponding(n *netlist.Netlist, responding []netlist.NodeID) []Finding {
	var out []Finding
	for _, rs := range responding {
		if rs < 0 || int(rs) >= n.NumNodes() {
			out = append(out, Finding{ID: IDRespondingSignal, Sev: Error, Node: netlist.Invalid,
				Msg: fmt.Sprintf("responding signal %d out of range [0,%d)", rs, n.NumNodes())})
			continue
		}
		if n.Node(rs).Type != netlist.DFF {
			out = append(out, Finding{ID: IDRespondingSignal, Sev: Error, Node: rs,
				Name: n.Node(rs).Name,
				Msg:  fmt.Sprintf("responding signal is a %v, want DFF", n.Node(rs).Type)})
		}
	}
	return out
}

// CheckConeWindow verifies MC004: at the configured unroll depth the
// responding-signal fanin cone must have converged — its deepest layer
// introduces no register that was absent from shallower layers.
// Otherwise errors injected more than MaxDepth cycles before the target
// can still reach the responding signals, and the pre-characterization
// window under-covers the design.
func CheckConeWindow(n *netlist.Netlist, responding []netlist.NodeID, maxDepth int) []Finding {
	cone := n.UnrolledFaninCone(responding, maxDepth)
	layers := cone.ByDepth
	if len(layers) == 0 {
		return nil
	}
	seen := make(map[netlist.NodeID]bool)
	for _, layer := range layers[:len(layers)-1] {
		for _, id := range layer {
			if n.Node(id).Type == netlist.DFF {
				seen[id] = true
			}
		}
	}
	var escaped []netlist.NodeID
	for _, id := range layers[len(layers)-1] {
		if n.Node(id).Type == netlist.DFF && !seen[id] {
			escaped = append(escaped, id)
		}
	}
	if len(escaped) == 0 {
		return nil
	}
	out := make([]Finding, 0, len(escaped))
	for _, id := range escaped {
		out = append(out, Finding{ID: IDConeEscape, Sev: Warn, Node: id,
			Name: n.Node(id).Name,
			Msg:  fmt.Sprintf("register first enters the responding-signal fanin cone at the window edge (depth %d); the unroll window may under-cover the design", maxDepth)})
	}
	return out
}
