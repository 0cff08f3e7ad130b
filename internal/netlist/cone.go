package netlist

import "slices"

// Cone holds the result of an unrolled cone extraction rooted at one or
// more responding signals. ByDepth[i] lists the nodes whose value i
// cycles before the observation cycle can influence (fanin cone) or be
// influenced by (fanout cone) the roots. A node may legitimately appear
// at several depths when register paths of different lengths reconverge.
type Cone struct {
	// ByDepth[i] is sorted by NodeID and free of duplicates. Layers
	// past a cone's fixed point share one slice, so callers must treat
	// them as read-only.
	ByDepth [][]NodeID
}

// MaxDepth returns the number of unroll depths captured (len(ByDepth)).
func (c *Cone) MaxDepth() int { return len(c.ByDepth) }

// All returns the union of nodes over every depth, sorted by id.
func (c *Cone) All() []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, layer := range c.ByDepth {
		for _, id := range layer {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Contains reports whether the node appears at the given depth.
func (c *Cone) Contains(id NodeID, depth int) bool {
	if depth < 0 || depth >= len(c.ByDepth) {
		return false
	}
	layer := c.ByDepth[depth]
	lo, hi := 0, len(layer)
	for lo < hi {
		mid := (lo + hi) / 2
		if layer[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(layer) && layer[lo] == id
}

// UnrolledFaninCone computes the fanin cone of the given root nodes in
// the unrolled netlist, up to maxDepth register crossings. Depth 0 holds
// the roots plus everything reaching them combinationally in the
// observation cycle (including the register outputs feeding that logic);
// depth i holds the logic of the i-th earlier cycle that can still reach
// the roots through i register boundaries.
//
// This implements step 1 of the paper's pre-characterization: "unroll the
// circuit netlist and traverse the unrolled netlist in a breadth-first
// order starting from the identified signals".
func (n *Netlist) UnrolledFaninCone(roots []NodeID, maxDepth int) *Cone {
	return n.unrolledCone(roots, maxDepth, false)
}

// UnrolledFanoutCone computes the forward cone of the roots: the nodes a
// value change at a root can reach. Depth i holds nodes reached after
// crossing i register boundaries forward (the paper indexes these with
// negative i; we store them in a separate cone).
func (n *Netlist) UnrolledFanoutCone(roots []NodeID, maxDepth int) *Cone {
	return n.unrolledCone(roots, maxDepth, true)
}

// unrolledCone builds the cone one layer at a time. Layer d+1 depends
// on layer d alone: fanin, it is the combinational closure of the
// fanins of layer d's registers; fanout, the closure of the registers
// that layer d's nodes feed. So once a layer equals the one before, it
// is the fixed point, and every deeper layer shares its slice.
func (n *Netlist) unrolledCone(roots []NodeID, maxDepth int, forward bool) *Cone {
	if maxDepth < 0 {
		maxDepth = 0
	}
	var fanouts [][]NodeID
	if forward {
		fanouts = n.Fanouts()
	}
	cone := &Cone{ByDepth: make([][]NodeID, maxDepth+1)}
	in := make([]bool, len(n.nodes))
	// seeds starts the current layer's closure and next collects the
	// following layer's; stack is the closure's work list.
	seeds := append([]NodeID(nil), roots...)
	var next, stack []NodeID
	for d := 0; d <= maxDepth; d++ {
		clear(in)
		for _, id := range seeds {
			if !in[id] {
				in[id] = true
				stack = append(stack, id)
			}
		}
		next = next[:0]
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var succ []NodeID
			if forward {
				succ = fanouts[id]
			} else {
				succ = n.nodes[id].Fanin
				if n.nodes[id].Type == DFF {
					next = append(next, succ...)
					continue
				}
			}
			for _, s := range succ {
				switch {
				case forward && n.nodes[s].Type == DFF:
					next = append(next, s)
				case !in[s]:
					in[s] = true
					stack = append(stack, s)
				}
			}
		}
		var layer []NodeID
		for i, ok := range in {
			if ok {
				layer = append(layer, NodeID(i))
			}
		}
		if d > 0 && slices.Equal(layer, cone.ByDepth[d-1]) {
			for k := d; k <= maxDepth; k++ {
				cone.ByDepth[k] = cone.ByDepth[d-1]
			}
			break
		}
		cone.ByDepth[d] = layer
		seeds, next = next, seeds
	}
	return cone
}

// FilterRegs returns, per depth, only the DFF nodes of the cone. Used by
// Fig 8(b) (fanin-cone register count per unrolled cycle) and by the
// error-lifetime campaign which only injects into registers.
func (c *Cone) FilterRegs(n *Netlist) [][]NodeID {
	out := make([][]NodeID, len(c.ByDepth))
	for d, layer := range c.ByDepth {
		for _, id := range layer {
			if n.Node(id).Type == DFF {
				out[d] = append(out[d], id)
			}
		}
	}
	return out
}

// Merge returns a cone whose depth-d layer is the union of the two
// cones' depth-d layers. The cones may have different depths. Both
// layers are sorted and free of duplicates, so one linear pass merges
// them.
func Merge(a, b *Cone) *Cone {
	depth := max(len(a.ByDepth), len(b.ByDepth))
	out := &Cone{ByDepth: make([][]NodeID, depth)}
	for d := range out.ByDepth {
		var la, lb []NodeID
		if d < len(a.ByDepth) {
			la = a.ByDepth[d]
		}
		if d < len(b.ByDepth) {
			lb = b.ByDepth[d]
		}
		if len(la)+len(lb) == 0 {
			continue
		}
		m := make([]NodeID, 0, len(la)+len(lb))
		i, j := 0, 0
		for i < len(la) && j < len(lb) {
			switch {
			case la[i] < lb[j]:
				m = append(m, la[i])
				i++
			case lb[j] < la[i]:
				m = append(m, lb[j])
				j++
			default:
				m = append(m, la[i])
				i++
				j++
			}
		}
		m = append(m, la[i:]...)
		out.ByDepth[d] = append(m, lb[j:]...)
	}
	return out
}
