package netlist

import "sort"

// Cone holds the result of an unrolled cone extraction rooted at one or
// more responding signals. ByDepth[i] lists the nodes whose value i
// cycles before the observation cycle can influence (fanin cone) or be
// influenced by (fanout cone) the roots. A node may legitimately appear
// at several depths when register paths of different lengths reconverge.
type Cone struct {
	// ByDepth[i] is sorted by NodeID and free of duplicates.
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
	sortNodeIDs(out)
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

func (n *Netlist) unrolledCone(roots []NodeID, maxDepth int, forward bool) *Cone {
	if maxDepth < 0 {
		maxDepth = 0
	}
	inSet := make([][]bool, maxDepth+1)
	for d := range inSet {
		inSet[d] = make([]bool, len(n.nodes))
	}
	type item struct {
		id    NodeID
		depth int
	}
	var queue []item
	push := func(id NodeID, d int) {
		if d > maxDepth || inSet[d][id] {
			return
		}
		inSet[d][id] = true
		queue = append(queue, item{id, d})
	}
	for _, r := range roots {
		push(r, 0)
	}
	var fanouts [][]NodeID
	if forward {
		fanouts = n.Fanouts()
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		node := &n.nodes[it.id]
		if forward {
			for _, succ := range fanouts[it.id] {
				nd := it.depth
				if n.nodes[succ].Type == DFF {
					nd++
				}
				push(succ, nd)
			}
		} else {
			nd := it.depth
			if node.Type == DFF {
				nd++
			}
			for _, f := range node.Fanin {
				push(f, nd)
			}
		}
	}
	cone := &Cone{ByDepth: make([][]NodeID, maxDepth+1)}
	for d := 0; d <= maxDepth; d++ {
		for i, in := range inSet[d] {
			if in {
				cone.ByDepth[d] = append(cone.ByDepth[d], NodeID(i))
			}
		}
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

func sortNodeIDs(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
