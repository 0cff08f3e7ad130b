// Package modelcheck is the static verification layer of the framework:
// a pure-static linter over the gate-level netlist and the surrounding
// SoC model (placement, responding-signal cones). It exists because the
// cross-level flow only produces correct SSF estimates when structural
// invariants of the design hold — acyclic combinational logic, sound
// fanin references, consistent topological order and fanout cones,
// well-formed registers — and a malformed circuit would otherwise either
// panic deep inside the simulators or silently corrupt results.
//
// Every detected problem is a Finding with a stable check ID (NL0xx for
// netlist-structural checks, MC0xx for model-level checks), a severity,
// and a structured location, so tooling (cmd/netlint, CI) can filter and
// assert on them. The package never panics on malformed input: it is
// explicitly designed to run on netlists produced by
// netlist.ReadUnchecked, i.e. circuits that would fail Validate.
package modelcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// Severity grades a finding.
type Severity int

// Severities, in increasing order of gravity.
const (
	// Info findings are observations that never indicate a broken
	// design (e.g. statistics-level notes).
	Info Severity = iota
	// Warn findings indicate suspicious but simulatable structure
	// (dead logic, floating inputs). The engine guard ignores them.
	Warn
	// Error findings indicate structure the simulators cannot evaluate
	// soundly (cycles, dangling references). The engine guard refuses
	// to construct on them.
	Error
)

// String returns the display name of the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON serializes the severity by name, so -json output reads
// "warn" rather than an opaque integer.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(s.String())), nil
}

// UnmarshalJSON accepts the names MarshalJSON produces.
func (s *Severity) UnmarshalJSON(data []byte) error {
	name, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("modelcheck: severity must be a string: %s", data)
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// ParseSeverity converts a -fail-on style name to a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("modelcheck: unknown severity %q (want info|warn|error)", s)
}

// Check IDs. Stable: tests and downstream tooling key on them; never
// renumber, only append.
const (
	// IDCombLoop — the combinational subgraph contains a cycle. The
	// finding's Path holds one full cycle.
	IDCombLoop = "NL001"
	// IDArity — a node's fanin count does not match its cell type.
	IDArity = "NL002"
	// IDDanglingRef — a fanin, DFF enable, or output driver references
	// a node id outside the netlist.
	IDDanglingRef = "NL003"
	// IDFloatingInput — a primary input drives nothing.
	IDFloatingInput = "NL004"
	// IDDeadGate — a combinational gate whose value can never be
	// observed: it reaches no primary output and no register D/enable
	// pin.
	IDDeadGate = "NL005"
	// IDConstLogic — a combinational gate controllable from no primary
	// input and no register: every path into it bottoms out in tie
	// cells, so it computes a constant.
	IDConstLogic = "NL006"
	// IDTopoMismatch — the netlist package's TopoOrder disagrees with
	// an independent from-scratch recomputation (a bug in topo.go or a
	// stale cache, not in the design).
	IDTopoMismatch = "NL007"
	// IDFanoutMismatch — the netlist package's Fanouts cache disagrees
	// with a from-scratch recomputation from the fanin edges.
	IDFanoutMismatch = "NL008"
	// IDMultiDrivenReg — two registers (or two primary outputs) share
	// one name: the register group is multiply driven and name-based
	// lookups (responding signals, hardening maps) are ambiguous.
	IDMultiDrivenReg = "NL009"
	// IDStuckReg — a register that can never change state after reset:
	// its enable is tied to constant 0, or its D input recirculates its
	// own Q with no enable.
	IDStuckReg = "NL010"
	// IDCombForwardRef — a combinational gate's fanin references a
	// higher node id. The graph may still be acyclic, but the id order
	// is no longer a topological order, which the serialization format
	// and several consumers assume for combinational logic.
	IDCombForwardRef = "NL011"

	// IDPlaceOutOfDie — a placed coordinate lies outside the die area.
	IDPlaceOutOfDie = "MC001"
	// IDPlaceCoverage — the placement does not cover the netlist
	// one-to-one (size mismatch).
	IDPlaceCoverage = "MC002"
	// IDRespondingSignal — a responding signal is missing or is not a
	// register.
	IDRespondingSignal = "MC003"
	// IDConeEscape — the responding-signal fanin cone is still growing
	// at the configured unroll depth: faults older than the window can
	// reach the responding signals, so the pre-characterization window
	// under-covers the design.
	IDConeEscape = "MC004"
)

// Finding is one detected problem.
type Finding struct {
	ID  string   `json:"id"`
	Sev Severity `json:"severity"`
	// Node is the primary location (netlist.Invalid when the finding
	// is not tied to one node).
	Node netlist.NodeID `json:"node"`
	// Name is the node's debug name, when it has one.
	Name string `json:"name,omitempty"`
	// Msg is the human-readable description.
	Msg string `json:"msg"`
	// Path, for cycle findings, holds one full cycle (first node
	// repeated at the end).
	Path []netlist.NodeID `json:"path,omitempty"`
}

// String formats the finding as "ID severity: msg (node N "name")".
func (f Finding) String() string {
	loc := ""
	if f.Node != netlist.Invalid {
		loc = fmt.Sprintf(" (node %d", f.Node)
		if f.Name != "" {
			loc += fmt.Sprintf(" %q", f.Name)
		}
		loc += ")"
	}
	return fmt.Sprintf("%s %s: %s%s", f.ID, f.Sev, f.Msg, loc)
}

// Report collects the findings of one check run.
type Report struct {
	Findings []Finding `json:"findings"`
}

// add appends a finding, filling Name from the netlist when available.
func (r *Report) add(n *netlist.Netlist, f Finding) {
	if n != nil && f.Node >= 0 && int(f.Node) < n.NumNodes() && f.Name == "" {
		f.Name = n.Node(f.Node).Name
	}
	r.Findings = append(r.Findings, f)
}

// Max returns the highest severity present, or Info-1 if none. ok is
// false on an empty report.
func (r *Report) Max() (Severity, bool) {
	if len(r.Findings) == 0 {
		return Info, false
	}
	max := Info
	for _, f := range r.Findings {
		if f.Sev > max {
			max = f.Sev
		}
	}
	return max, true
}

// HasAtLeast reports whether any finding is at or above the severity.
func (r *Report) HasAtLeast(sev Severity) bool {
	for _, f := range r.Findings {
		if f.Sev >= sev {
			return true
		}
	}
	return false
}

// Sort orders the findings deterministically for presentation: by node,
// then check ID, then message. Check functions append findings in rule
// order, which is already deterministic but interleaves rules; sorted
// output groups everything wrong with one node together and is stable
// across refactors of the rule order.
func (r *Report) Sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Msg < b.Msg
	})
}

// Err converts the report into an error when any finding is at or above
// failOn; nil otherwise. The error message lists the qualifying
// findings.
func (r *Report) Err(failOn Severity) error {
	var lines []string
	for _, f := range r.Findings {
		if f.Sev >= failOn {
			lines = append(lines, f.String())
		}
	}
	if len(lines) == 0 {
		return nil
	}
	return fmt.Errorf("modelcheck: %d finding(s):\n  %s", len(lines), strings.Join(lines, "\n  "))
}

// String renders every finding, one per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckNetlist runs every netlist-structural check (NL0xx) and returns
// the report. It accepts malformed netlists (from ReadUnchecked): when
// dangling references are present, checks that require a sound graph are
// skipped rather than panicking.
func CheckNetlist(n *netlist.Netlist) *Report {
	r := &Report{}
	refsOK := checkArityAndRefs(n, r)
	checkNames(n, r)
	checkCombForwardRefs(n, r)
	if !refsOK {
		// Graph traversals below index by fanin id; a dangling
		// reference (already reported as NL003) would panic them.
		return r
	}
	checkCombCycles(n, r)
	checkFloatingInputs(n, r)
	checkObservability(n, r)
	checkControllability(n, r)
	checkStuckRegs(n, r)
	r.crossCheckTopo(n)
	r.crossCheckFanouts(n)
	return r
}

// checkArityAndRefs verifies NL002/NL003 and reports whether every
// reference (fanin, enable, output driver) lands inside the netlist.
func checkArityAndRefs(n *netlist.Netlist, r *Report) bool {
	ok := true
	num := n.NumNodes()
	for i := 0; i < num; i++ {
		id := netlist.NodeID(i)
		node := n.Node(id)
		if want := node.Type.FaninCount(); want >= 0 {
			if len(node.Fanin) != want {
				r.add(n, Finding{ID: IDArity, Sev: Error, Node: id,
					Msg: fmt.Sprintf("%v has %d fanins, want %d", node.Type, len(node.Fanin), want)})
			}
		} else if len(node.Fanin) < 2 {
			r.add(n, Finding{ID: IDArity, Sev: Error, Node: id,
				Msg: fmt.Sprintf("%v has %d fanins, want >= 2", node.Type, len(node.Fanin))})
		}
		for _, f := range node.Fanin {
			if f < 0 || int(f) >= num {
				ok = false
				r.add(n, Finding{ID: IDDanglingRef, Sev: Error, Node: id,
					Msg: fmt.Sprintf("%v fanin %d out of range [0,%d)", node.Type, f, num)})
			}
		}
		if node.Type == netlist.DFF && node.En != netlist.Invalid {
			if node.En < 0 || int(node.En) >= num {
				ok = false
				r.add(n, Finding{ID: IDDanglingRef, Sev: Error, Node: id,
					Msg: fmt.Sprintf("DFF enable %d out of range [0,%d)", node.En, num)})
			}
		}
	}
	for _, p := range n.Outputs() {
		if p.Node < 0 || int(p.Node) >= num {
			ok = false
			r.add(n, Finding{ID: IDDanglingRef, Sev: Error, Node: netlist.Invalid, Name: p.Name,
				Msg: fmt.Sprintf("output %q driver %d out of range [0,%d)", p.Name, p.Node, num)})
		}
	}
	return ok
}

// checkNames verifies NL009: unique register names and unique output
// names. Two DFFs with the same name form a multiply-driven register
// group — name-keyed consumers (hardening maps, responding-signal
// lookup, register groups) would silently pick one of them.
func checkNames(n *netlist.Netlist, r *Report) {
	regNames := make(map[string]netlist.NodeID)
	for _, reg := range n.Regs() {
		name := n.Node(reg).Name
		if name == "" {
			continue
		}
		if prev, dup := regNames[name]; dup {
			r.add(n, Finding{ID: IDMultiDrivenReg, Sev: Error, Node: reg, Name: name,
				Msg: fmt.Sprintf("register name %q already driven by node %d", name, prev)})
			continue
		}
		regNames[name] = reg
	}
	outNames := make(map[string]netlist.NodeID)
	for _, p := range n.Outputs() {
		if prev, dup := outNames[p.Name]; dup {
			r.add(n, Finding{ID: IDMultiDrivenReg, Sev: Error, Node: p.Node, Name: p.Name,
				Msg: fmt.Sprintf("output name %q already driven by node %d", p.Name, prev)})
			continue
		}
		outNames[p.Name] = p.Node
	}
}

// checkCombForwardRefs verifies NL011: combinational fanins must point
// backwards (id order is a topo order for combinational logic; only DFF
// data/enable nets legitimately point forward).
func checkCombForwardRefs(n *netlist.Netlist, r *Report) {
	for i := 0; i < n.NumNodes(); i++ {
		id := netlist.NodeID(i)
		node := n.Node(id)
		if !node.Type.IsCombinational() {
			continue
		}
		for _, f := range node.Fanin {
			if f >= id {
				r.add(n, Finding{ID: IDCombForwardRef, Sev: Warn, Node: id,
					Msg: fmt.Sprintf("%v fanin %d is a forward (or self) reference; combinational ids must be topologically ordered", node.Type, f)})
			}
		}
	}
}

// checkCombCycles verifies NL001 with an iterative three-color DFS over
// the combinational subgraph, reporting one full cycle path per SCC
// entered.
func checkCombCycles(n *netlist.Netlist, r *Report) {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // finished
	)
	num := n.NumNodes()
	color := make([]byte, num)
	// Iterative DFS along fanin edges, restricted to combinational
	// nodes (registers legitimately close cycles).
	type frame struct {
		id   netlist.NodeID
		next int
	}
	var stack []frame
	var path []netlist.NodeID
	for start := 0; start < num; start++ {
		sid := netlist.NodeID(start)
		if color[sid] != white || !n.Node(sid).Type.IsCombinational() {
			continue
		}
		color[sid] = gray
		stack = append(stack[:0], frame{id: sid})
		path = append(path[:0], sid)
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			node := n.Node(fr.id)
			advanced := false
			for fr.next < len(node.Fanin) {
				f := node.Fanin[fr.next]
				fr.next++
				if !n.Node(f).Type.IsCombinational() {
					continue
				}
				switch color[f] {
				case white:
					color[f] = gray
					stack = append(stack, frame{id: f})
					path = append(path, f)
					advanced = true
				case gray:
					// Found a cycle: path from f to the top of the
					// DFS path, closed back to f.
					cyc := extractCycle(path, f)
					r.add(n, Finding{ID: IDCombLoop, Sev: Error, Node: f,
						Msg: "combinational cycle: " + formatPath(n, cyc), Path: cyc})
				}
				if advanced {
					break
				}
			}
			if !advanced {
				color[fr.id] = black
				stack = stack[:len(stack)-1]
				path = path[:len(path)-1]
			}
		}
	}
}

// extractCycle returns the cycle closing at node f: the suffix of the
// DFS path starting at f, with f appended to close the loop.
func extractCycle(path []netlist.NodeID, f netlist.NodeID) []netlist.NodeID {
	for i, id := range path {
		if id == f {
			cyc := append([]netlist.NodeID(nil), path[i:]...)
			return append(cyc, f)
		}
	}
	// f not on the path (cannot happen with a correct DFS); report it
	// alone rather than nothing.
	return []netlist.NodeID{f, f}
}

func formatPath(n *netlist.Netlist, path []netlist.NodeID) string {
	parts := make([]string, len(path))
	for i, id := range path {
		if name := n.Node(id).Name; name != "" {
			parts[i] = fmt.Sprintf("%d(%s)", id, name)
		} else {
			parts[i] = fmt.Sprintf("%d(%v)", id, n.Node(id).Type)
		}
	}
	return strings.Join(parts, " <- ")
}

// checkFloatingInputs verifies NL004: every primary input should feed
// something (fanin edge, DFF enable, or primary output).
func checkFloatingInputs(n *netlist.Netlist, r *Report) {
	used := make([]bool, n.NumNodes())
	for i := 0; i < n.NumNodes(); i++ {
		node := n.Node(netlist.NodeID(i))
		for _, f := range node.Fanin {
			used[f] = true
		}
		if node.Type == netlist.DFF && node.En != netlist.Invalid {
			used[node.En] = true
		}
	}
	for _, p := range n.Outputs() {
		used[p.Node] = true
	}
	for _, in := range n.Inputs() {
		if !used[in] {
			r.add(n, Finding{ID: IDFloatingInput, Sev: Warn, Node: in,
				Msg: "primary input drives nothing"})
		}
	}
}

// checkObservability verifies NL005: a combinational gate whose value
// reaches no primary output and no register D/enable pin is dead — its
// computation can never influence anything the framework observes.
func checkObservability(n *netlist.Netlist, r *Report) {
	num := n.NumNodes()
	observed := make([]bool, num)
	var queue []netlist.NodeID
	mark := func(id netlist.NodeID) {
		if !observed[id] {
			observed[id] = true
			queue = append(queue, id)
		}
	}
	for _, p := range n.Outputs() {
		mark(p.Node)
	}
	for _, reg := range n.Regs() {
		node := n.Node(reg)
		for _, f := range node.Fanin {
			mark(f)
		}
		if node.En != netlist.Invalid {
			mark(node.En)
		}
	}
	// Walk backwards through combinational logic only: a value behind a
	// register boundary is observed via that register.
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		node := n.Node(id)
		if !node.Type.IsCombinational() {
			continue
		}
		for _, f := range node.Fanin {
			mark(f)
		}
	}
	for i := 0; i < num; i++ {
		id := netlist.NodeID(i)
		t := n.Node(id).Type
		if t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1 && !observed[id] {
			r.add(n, Finding{ID: IDDeadGate, Sev: Warn, Node: id,
				Msg: fmt.Sprintf("%v output is unobservable (reaches no output or register)", t)})
		}
	}
}

// checkControllability verifies NL006: a combinational gate fed (transitively)
// only by tie cells computes a constant.
func checkControllability(n *netlist.Netlist, r *Report) {
	num := n.NumNodes()
	// controllable[i]: node i's value can be influenced by a primary
	// input or register. Fixed point over fanin edges in id order is
	// not enough with forward refs, so iterate until stable (cheap:
	// netlists are shallow and this converges in O(depth) passes, one
	// pass in the common topologically-ordered case).
	controllable := make([]bool, num)
	for _, in := range n.Inputs() {
		controllable[in] = true
	}
	for _, reg := range n.Regs() {
		controllable[reg] = true
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < num; i++ {
			id := netlist.NodeID(i)
			node := n.Node(id)
			if controllable[id] || !node.Type.IsCombinational() {
				continue
			}
			for _, f := range node.Fanin {
				if controllable[f] {
					controllable[id] = true
					changed = true
					break
				}
			}
		}
	}
	for i := 0; i < num; i++ {
		id := netlist.NodeID(i)
		t := n.Node(id).Type
		if t.IsCombinational() && t != netlist.Const0 && t != netlist.Const1 && !controllable[id] {
			r.add(n, Finding{ID: IDConstLogic, Sev: Warn, Node: id,
				Msg: fmt.Sprintf("%v is driven only by tie cells and computes a constant", t)})
		}
	}
}

// checkStuckRegs verifies NL010: registers that can never change state.
func checkStuckRegs(n *netlist.Netlist, r *Report) {
	for _, reg := range n.Regs() {
		node := n.Node(reg)
		if len(node.Fanin) != 1 {
			continue // arity finding already reported
		}
		if node.En != netlist.Invalid && n.Node(node.En).Type == netlist.Const0 {
			r.add(n, Finding{ID: IDStuckReg, Sev: Warn, Node: reg,
				Msg: "register enable is tied to constant 0; it can never load"})
			continue
		}
		if node.Fanin[0] == reg && node.En == netlist.Invalid {
			r.add(n, Finding{ID: IDStuckReg, Sev: Warn, Node: reg,
				Msg: "register recirculates its own output with no enable; it can never change"})
		}
	}
}

// crossCheckTopo verifies NL007: the package's TopoOrder against this
// package's independent recomputation (checkCombCycles already proved
// acyclicity when we get here).
func (r *Report) crossCheckTopo(n *netlist.Netlist) {
	order, err := n.TopoOrder()
	if err != nil {
		// The cycle itself is NL001; TopoOrder agreeing that the graph
		// is cyclic is consistent, not a mismatch.
		return
	}
	r.Findings = append(r.Findings, VerifyTopoOrder(n, order)...)
}

// VerifyTopoOrder independently validates a claimed topological order of
// the combinational subgraph: every combinational node exactly once, and
// every node after all of its combinational fanins. It is exported so
// tests can feed corrupted orders; CheckNetlist calls it with the
// netlist's own TopoOrder result.
func VerifyTopoOrder(n *netlist.Netlist, order []netlist.NodeID) []Finding {
	var out []Finding
	num := n.NumNodes()
	pos := make([]int, num)
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range order {
		if id < 0 || int(id) >= num {
			out = append(out, Finding{ID: IDTopoMismatch, Sev: Error, Node: netlist.Invalid,
				Msg: fmt.Sprintf("topo order position %d holds out-of-range node %d", p, id)})
			continue
		}
		if !n.Node(id).Type.IsCombinational() {
			out = append(out, Finding{ID: IDTopoMismatch, Sev: Error, Node: id,
				Msg: fmt.Sprintf("topo order contains non-combinational node at position %d", p)})
			continue
		}
		if pos[id] >= 0 {
			out = append(out, Finding{ID: IDTopoMismatch, Sev: Error, Node: id,
				Msg: fmt.Sprintf("node appears twice in topo order (positions %d and %d)", pos[id], p)})
			continue
		}
		pos[id] = p
	}
	numComb := 0
	for i := 0; i < num; i++ {
		id := netlist.NodeID(i)
		node := n.Node(id)
		if !node.Type.IsCombinational() {
			continue
		}
		numComb++
		if pos[id] < 0 {
			out = append(out, Finding{ID: IDTopoMismatch, Sev: Error, Node: id,
				Msg: "combinational node missing from topo order"})
			continue
		}
		for _, f := range node.Fanin {
			if f < 0 || int(f) >= num || !n.Node(f).Type.IsCombinational() {
				continue
			}
			if pos[f] < 0 || pos[f] >= pos[id] {
				out = append(out, Finding{ID: IDTopoMismatch, Sev: Error, Node: id,
					Msg: fmt.Sprintf("node at position %d precedes its fanin %d (position %d)", pos[id], f, pos[f])})
			}
		}
	}
	if len(order) > numComb {
		out = append(out, Finding{ID: IDTopoMismatch, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("topo order has %d entries for %d combinational nodes", len(order), numComb)})
	}
	return out
}

// crossCheckFanouts verifies NL008: the netlist's cached Fanouts against
// a from-scratch recomputation from the fanin edges.
func (r *Report) crossCheckFanouts(n *netlist.Netlist) {
	r.Findings = append(r.Findings, VerifyFanouts(n, n.Fanouts())...)
}

// VerifyFanouts independently validates a claimed fanout table against
// the fanin edges. Exported for the same reason as VerifyTopoOrder.
func VerifyFanouts(n *netlist.Netlist, fanouts [][]netlist.NodeID) []Finding {
	var out []Finding
	num := n.NumNodes()
	if len(fanouts) != num {
		out = append(out, Finding{ID: IDFanoutMismatch, Sev: Error, Node: netlist.Invalid,
			Msg: fmt.Sprintf("fanout table has %d entries for %d nodes", len(fanouts), num)})
		return out
	}
	want := make([][]netlist.NodeID, num)
	for i := 0; i < num; i++ {
		for _, f := range n.Node(netlist.NodeID(i)).Fanin {
			if f >= 0 && int(f) < num {
				want[f] = append(want[f], netlist.NodeID(i))
			}
		}
	}
	for i := 0; i < num; i++ {
		got := append([]netlist.NodeID(nil), fanouts[i]...)
		exp := want[i]
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		sort.Slice(exp, func(a, b int) bool { return exp[a] < exp[b] })
		if len(got) != len(exp) {
			out = append(out, Finding{ID: IDFanoutMismatch, Sev: Error, Node: netlist.NodeID(i),
				Msg: fmt.Sprintf("fanout list has %d entries, recomputation finds %d", len(got), len(exp))})
			continue
		}
		for j := range got {
			if got[j] != exp[j] {
				out = append(out, Finding{ID: IDFanoutMismatch, Sev: Error, Node: netlist.NodeID(i),
					Msg: fmt.Sprintf("fanout list %v disagrees with recomputation %v", got, exp)})
				break
			}
		}
	}
	return out
}
