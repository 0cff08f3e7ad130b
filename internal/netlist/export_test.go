package netlist

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
