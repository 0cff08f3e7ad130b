// Package netlist provides the structural gate-level representation used
// throughout the framework: a directed graph of primitive cells (simple
// logic gates and D flip-flops) with named primary inputs and outputs.
//
// The netlist is the single source of truth for a design. The RTL-level
// simulator (internal/rtl) evaluates it cycle-by-cycle with zero delay,
// while the gate-level timed simulator (internal/timingsim) evaluates the
// injection cycle with per-cell delays and transient pulses. The
// pre-characterization procedure (internal/precharac) extracts fanin and
// fanout cones of responding signals from the same graph.
package netlist

import (
	"fmt"
	"sync/atomic"
)

// NodeID identifies a node in a netlist. The node's output net shares the
// same identity: node i drives net i.
type NodeID int32

// Invalid is the zero-ish sentinel for "no node".
const Invalid NodeID = -1

// CellType enumerates the primitive cells supported by the framework.
type CellType uint8

// Primitive cell types. DFF is the only sequential element; everything
// else is combinational. Const0/Const1 are tie cells.
const (
	Const0 CellType = iota
	Const1
	Input // primary input; no fanin
	Buf
	Inv
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Mux2 // fanin: [a, b, sel]; output = sel ? b : a
	DFF  // fanin: [d]; output = registered value
	numCellTypes
)

var cellNames = [...]string{
	Const0: "CONST0",
	Const1: "CONST1",
	Input:  "INPUT",
	Buf:    "BUF",
	Inv:    "INV",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	Mux2:   "MUX2",
	DFF:    "DFF",
}

// String returns the conventional library name of the cell type.
func (c CellType) String() string {
	if int(c) < len(cellNames) {
		return cellNames[c]
	}
	return fmt.Sprintf("CellType(%d)", uint8(c))
}

// IsCombinational reports whether the cell computes a pure function of its
// fanins within a cycle.
func (c CellType) IsCombinational() bool {
	switch c {
	case Input, DFF:
		return false
	default:
		return true
	}
}

// FaninCount returns the required number of fanins for the cell type, or
// -1 if the cell accepts a variable number (And/Nand/Or/Nor/Xor/Xnor
// accept 2 or more).
func (c CellType) FaninCount() int {
	switch c {
	case Const0, Const1, Input:
		return 0
	case Buf, Inv, DFF:
		return 1
	case Mux2:
		return 3
	case And, Nand, Or, Nor, Xor, Xnor:
		return -1
	default:
		return -1
	}
}

// Node is a single cell instance. Fanin order matters only for Mux2
// ([a, b, sel]). Name is optional and used for debug and responding-signal
// lookup; register and port names are always set by the HDL elaborator.
type Node struct {
	Type  CellType
	Fanin []NodeID
	Name  string
	// Init is the power-on value of a DFF (false = 0). Ignored for
	// other cell types.
	Init bool
	// En, when not Invalid, marks a DFF as load-enable (clock-gated)
	// with the given net as its enable. Zero-delay simulation is
	// unaffected (the hold path is structural, via a mux on D), but
	// the timed simulator uses it: a transient arriving at a gated
	// flop while the enable is low latches only if it is wide enough
	// to upset the storage node directly. Ignored for other cells.
	En NodeID
}

// Port is a named primary output: the design-level name and the node that
// drives it.
type Port struct {
	Name string
	Node NodeID
}

// Netlist is a flat gate-level design.
//
// The zero value is an empty netlist ready for use.
type Netlist struct {
	nodes   []Node
	inputs  []NodeID
	regs    []NodeID
	outputs []Port

	// fanouts is built lazily by Fanouts and cleared on mutation. It is
	// stored only once filled, so goroutines that read a finished
	// netlist may all build it at once and each sees a complete table.
	fanouts atomic.Pointer[[][]NodeID]
}

// New returns an empty netlist with capacity hints.
func New(nodeCap int) *Netlist {
	return &Netlist{nodes: make([]Node, 0, nodeCap)}
}

// NumNodes returns the total number of nodes (cells) in the netlist.
func (n *Netlist) NumNodes() int { return len(n.nodes) }

// Node returns the node with the given id. The returned pointer stays
// valid until the next mutation.
func (n *Netlist) Node(id NodeID) *Node { return &n.nodes[id] }

// Inputs returns the primary input nodes in insertion order. The caller
// must not mutate the returned slice.
func (n *Netlist) Inputs() []NodeID { return n.inputs }

// Regs returns the DFF nodes in insertion order. The caller must not
// mutate the returned slice.
func (n *Netlist) Regs() []NodeID { return n.regs }

// Outputs returns the named primary outputs. The caller must not mutate
// the returned slice.
func (n *Netlist) Outputs() []Port { return n.outputs }

// add appends a node and invalidates caches.
func (n *Netlist) add(node Node) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, node)
	n.fanouts.Store(nil)
	return id
}

// AddInput creates a named primary input node.
func (n *Netlist) AddInput(name string) NodeID {
	id := n.add(Node{Type: Input, Name: name})
	n.inputs = append(n.inputs, id)
	return id
}

// AddConst creates a tie cell with the given constant value.
func (n *Netlist) AddConst(v bool) NodeID {
	t := Const0
	if v {
		t = Const1
	}
	return n.add(Node{Type: t})
}

// AddGate creates a combinational gate. It panics if the fanin count is
// invalid for the cell type; netlist construction errors are programming
// errors, not runtime conditions.
func (n *Netlist) AddGate(t CellType, fanin ...NodeID) NodeID {
	if !t.IsCombinational() || t == Const0 || t == Const1 {
		panic(fmt.Sprintf("netlist: AddGate with non-gate cell %v", t))
	}
	if want := t.FaninCount(); want >= 0 {
		if len(fanin) != want {
			panic(fmt.Sprintf("netlist: %v needs %d fanins, got %d", t, want, len(fanin)))
		}
	} else if len(fanin) < 2 {
		panic(fmt.Sprintf("netlist: %v needs at least 2 fanins, got %d", t, len(fanin)))
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(n.nodes) {
			panic(fmt.Sprintf("netlist: fanin %d out of range", f))
		}
	}
	fi := make([]NodeID, len(fanin))
	copy(fi, fanin)
	return n.add(Node{Type: t, Fanin: fi})
}

// AddDFF creates a register with data input d, an optional name, and a
// power-on value.
func (n *Netlist) AddDFF(d NodeID, name string, init bool) NodeID {
	if d < 0 || int(d) >= len(n.nodes) {
		panic(fmt.Sprintf("netlist: DFF data input %d out of range", d))
	}
	id := n.add(Node{Type: DFF, Fanin: []NodeID{d}, Name: name, Init: init, En: Invalid})
	n.regs = append(n.regs, id)
	return id
}

// SetDFFEnable marks a DFF as load-enable (clock-gated) with the given
// enable net. It panics on non-DFF nodes or out-of-range enables.
func (n *Netlist) SetDFFEnable(id, en NodeID) {
	if n.nodes[id].Type != DFF {
		panic(fmt.Sprintf("netlist: SetDFFEnable on non-DFF node %d", id))
	}
	if en < 0 || int(en) >= len(n.nodes) {
		panic(fmt.Sprintf("netlist: enable %d out of range", en))
	}
	n.nodes[id].En = en
}

// SetName assigns or reassigns a debug name to a node.
func (n *Netlist) SetName(id NodeID, name string) {
	n.nodes[id].Name = name
}

// AddOutput registers a named primary output driven by the given node.
func (n *Netlist) AddOutput(name string, id NodeID) {
	if id < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("netlist: output %q driver %d out of range", name, id))
	}
	n.outputs = append(n.outputs, Port{Name: name, Node: id})
}

// Fanouts returns, for each node, the list of nodes it feeds. The result
// is cached until the netlist is mutated. The caller must not mutate the
// returned slices. Several goroutines may call it on a netlist nobody
// mutates; the first calls may each build the table, all equal.
func (n *Netlist) Fanouts() [][]NodeID {
	if fo := n.fanouts.Load(); fo != nil {
		return *fo
	}
	fo := make([][]NodeID, len(n.nodes))
	cnt := make([]int, len(n.nodes))
	for _, node := range n.nodes {
		for _, f := range node.Fanin {
			cnt[f]++
		}
	}
	for i := range fo {
		if cnt[i] > 0 {
			fo[i] = make([]NodeID, 0, cnt[i])
		}
	}
	for i, node := range n.nodes {
		for _, f := range node.Fanin {
			fo[f] = append(fo[f], NodeID(i))
		}
	}
	n.fanouts.Store(&fo)
	return fo
}

// Validate checks structural invariants: fanin arities, fanin range, and
// acyclicity of the combinational graph (registers legitimately close
// cycles). It returns the first violation found.
func (n *Netlist) Validate() error {
	for i, node := range n.nodes {
		if want := node.Type.FaninCount(); want >= 0 {
			if len(node.Fanin) != want {
				return fmt.Errorf("node %d (%v): has %d fanins, want %d", i, node.Type, len(node.Fanin), want)
			}
		} else if len(node.Fanin) < 2 {
			return fmt.Errorf("node %d (%v): has %d fanins, want >= 2", i, node.Type, len(node.Fanin))
		}
		for _, f := range node.Fanin {
			if f < 0 || int(f) >= len(n.nodes) {
				return fmt.Errorf("node %d (%v): fanin %d out of range", i, node.Type, f)
			}
		}
	}
	if _, err := n.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		nodes:   make([]Node, len(n.nodes)),
		inputs:  append([]NodeID(nil), n.inputs...),
		regs:    append([]NodeID(nil), n.regs...),
		outputs: append([]Port(nil), n.outputs...),
	}
	for i, node := range n.nodes {
		cp := node
		cp.Fanin = append([]NodeID(nil), node.Fanin...)
		c.nodes[i] = cp
	}
	return c
}

// EvalCell computes the word-level output of a combinational cell given
// bit-parallel fanin words (each bit lane is an independent evaluation).
// It is shared by the logic simulators so RTL-level and gate-level
// evaluation cannot diverge on cell semantics.
func EvalCell(t CellType, in []uint64) uint64 {
	switch t {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return in[0]
	case Inv:
		return ^in[0]
	case And:
		v := in[0]
		for _, x := range in[1:] {
			v &= x
		}
		return v
	case Nand:
		v := in[0]
		for _, x := range in[1:] {
			v &= x
		}
		return ^v
	case Or:
		v := in[0]
		for _, x := range in[1:] {
			v |= x
		}
		return v
	case Nor:
		v := in[0]
		for _, x := range in[1:] {
			v |= x
		}
		return ^v
	case Xor:
		v := in[0]
		for _, x := range in[1:] {
			v ^= x
		}
		return v
	case Xnor:
		v := in[0]
		for _, x := range in[1:] {
			v ^= x
		}
		return ^v
	case Mux2:
		a, b, sel := in[0], in[1], in[2]
		return (a &^ sel) | (b & sel)
	default:
		panic(fmt.Sprintf("netlist: EvalCell on non-combinational cell %v", t))
	}
}
