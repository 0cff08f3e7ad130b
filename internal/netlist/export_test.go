package netlist

// UnrolledConeBFS is the cone extraction as a breadth-first walk over
// every (node, depth) pair of the unrolled netlist, with one visited
// flag per pair: the oracle of the layer-by-layer unrolledCone behind
// UnrolledFaninCone (forward false) and UnrolledFanoutCone (forward
// true).
func (n *Netlist) UnrolledConeBFS(roots []NodeID, maxDepth int, forward bool) *Cone {
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

// DepthsOf returns every unroll depth at which the node appears.
func (c *Cone) DepthsOf(id NodeID) []int {
	var ds []int
	for d := range c.ByDepth {
		if c.Contains(id, d) {
			ds = append(ds, d)
		}
	}
	return ds
}

// FilterComb returns, per depth, only the combinational gates of the
// cone (excluding constants).
func (c *Cone) FilterComb(n *Netlist) [][]NodeID {
	out := make([][]NodeID, len(c.ByDepth))
	for d, layer := range c.ByDepth {
		for _, id := range layer {
			t := n.Node(id).Type
			if t.IsCombinational() && t != Const0 && t != Const1 {
				out[d] = append(out[d], id)
			}
		}
	}
	return out
}

// FindNode returns the last node named name.
func (n *Netlist) FindNode(name string) (NodeID, bool) {
	for i := len(n.nodes) - 1; i >= 0 && name != ""; i-- {
		if n.nodes[i].Name == name {
			return NodeID(i), true
		}
	}
	return Invalid, false
}

// FindOutput returns the driver of the named primary output.
func (n *Netlist) FindOutput(name string) (NodeID, bool) {
	for _, p := range n.outputs {
		if p.Name == name {
			return p.Node, true
		}
	}
	return Invalid, false
}

// NamesMatching returns the ids of all named nodes whose name passes the
// given predicate, sorted by id.
func (n *Netlist) NamesMatching(pred func(string) bool) []NodeID {
	var ids []NodeID
	for i, node := range n.nodes {
		if node.Name != "" && pred(node.Name) {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// RandomDAG exposes randomDAG, a random valid netlist, to the external
// tests.
var RandomDAG = randomDAG
