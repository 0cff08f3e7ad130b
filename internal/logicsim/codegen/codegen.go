// Package codegen turns a compiled logicsim evaluation plan into Go
// source: a branch-free straight-line 64-lane evaluator specialized to
// one netlist. The generated file self-registers in logicsim's
// plan-hash-keyed registry, so Compile transparently swaps the code in
// for that exact design and falls back to the interpreted Eval on any
// mismatch.
//
// The generator works in two stages. Build lifts the plan's packed op
// stream (already peephole-folded by Compile: buf chains elided,
// constants folded) into a plain straight-line Program; Emit renders
// the Program as gofmt-formatted source. The Program is also directly
// executable (Program.Eval), which is how the equivalence fuzz target
// and the golden-fixture tests check generated semantics against the
// interpreted plan without invoking the Go compiler.
//
// What makes the generated code faster than the (already flat) plan
// interpreter: no per-op opcode decode or switch dispatch, no
// fanin-pool indirection, and — because every value index is a
// compile-time constant below the slice-length hint at the top of each
// function — no bounds checks in the hot straight line.
package codegen

import (
	"bytes"
	"fmt"
	"go/format"

	"repro/internal/logicsim"
	"repro/internal/modelcheck"
	"repro/internal/netlist"
)

// Op is one straight-line statement: Out's value slot receives the
// cell function applied to the In slots. Cells appear post-fold, so
// the set is the full netlist cell alphabet (Const0/Const1 with no
// fanins, Buf/Inv with one, gates with two or more, Mux2 with three).
type Op struct {
	Out  int
	Cell netlist.CellType
	In   []int
}

// Program is a netlist's combinational schedule as straight-line
// statements in execution order, plus the identity of the plan it was
// derived from (the registry key of the emitted code).
type Program struct {
	// Hash is logicsim's Plan.Hash of the source plan.
	Hash uint64
	// NumNodes sizes the value array (one word per node).
	NumNodes int
	// Ops is the statement list in plan execution order.
	Ops []Op
}

// Build compiles the netlist (with the standard peephole fold) and
// lifts the resulting plan into a Program.
func Build(nl *netlist.Netlist) (*Program, error) {
	plan, err := logicsim.Compile(nl)
	if err != nil {
		return nil, err
	}
	return FromPlan(plan)
}

// FromPlan lifts an already-compiled plan into a Program.
func FromPlan(plan *logicsim.Plan) (*Program, error) {
	view := plan.View()
	p := &Program{
		Hash:     plan.Hash(),
		NumNodes: view.NumNodes,
		Ops:      make([]Op, 0, len(view.Ops)),
	}
	for i := range view.Ops {
		op := &view.Ops[i]
		if !op.CellOK {
			return nil, fmt.Errorf("codegen: op %d carries an undecodable opcode", i)
		}
		if op.Fanin == nil && effFaninCount(op) > 0 {
			return nil, fmt.Errorf("codegen: op %d has an out-of-pool fanin span", i)
		}
		in := make([]int, len(op.Fanin))
		for j, f := range op.Fanin {
			if f < 0 || int(f) >= p.NumNodes {
				return nil, fmt.Errorf("codegen: op %d fanin %d out of range", i, j)
			}
			in[j] = int(f)
		}
		out := int(op.Out)
		if out < 0 || out >= p.NumNodes {
			return nil, fmt.Errorf("codegen: op %d writes out-of-range node %d", i, out)
		}
		p.Ops = append(p.Ops, Op{Out: out, Cell: op.Cell, In: in})
	}
	return p, nil
}

// effFaninCount mirrors modelcheck's effective-fanin rule for a
// decoded op.
func effFaninCount(op *modelcheck.PlanOp) int {
	if op.Arity >= 0 {
		return op.Arity
	}
	return op.Nin
}

// Eval executes the program over a flat 64-lane value array indexed by
// NodeID. It is the reference interpretation of the emitted source —
// the oracle the fuzz target compares against logicsim's evaluators —
// not a fast path.
func (p *Program) Eval(vals []uint64) {
	if len(vals) < p.NumNodes {
		panic(fmt.Sprintf("codegen: Eval over %d words, program needs %d", len(vals), p.NumNodes))
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		var v uint64
		switch op.Cell {
		case netlist.Const0:
			v = 0
		case netlist.Const1:
			v = ^uint64(0)
		case netlist.Buf:
			v = vals[op.In[0]]
		case netlist.Inv:
			v = ^vals[op.In[0]]
		case netlist.And, netlist.Nand:
			v = vals[op.In[0]]
			for _, f := range op.In[1:] {
				v &= vals[f]
			}
			if op.Cell == netlist.Nand {
				v = ^v
			}
		case netlist.Or, netlist.Nor:
			v = vals[op.In[0]]
			for _, f := range op.In[1:] {
				v |= vals[f]
			}
			if op.Cell == netlist.Nor {
				v = ^v
			}
		case netlist.Xor, netlist.Xnor:
			v = vals[op.In[0]]
			for _, f := range op.In[1:] {
				v ^= vals[f]
			}
			if op.Cell == netlist.Xnor {
				v = ^v
			}
		case netlist.Mux2:
			a, b, sel := vals[op.In[0]], vals[op.In[1]], vals[op.In[2]]
			v = (a &^ sel) | (b & sel)
		default:
			panic(fmt.Sprintf("codegen: op %d has non-combinational cell %v", i, op.Cell))
		}
		vals[op.Out] = v
	}
}

// Config shapes the emitted file.
type Config struct {
	// Package is the target package name.
	Package string
	// Prefix names the generated function (<Prefix>Eval).
	Prefix string
	// Source is the provenance line in the file header (netlist path
	// or built-in design description). Keep it deterministic — the
	// drift CI job diffs regenerated output byte for byte.
	Source string
	// LogicsimImport overrides the import path of the registry package
	// (defaults to "repro/internal/logicsim"). Golden-fixture tests
	// use the default; it exists so the emitter stays usable if the
	// module path ever changes.
	LogicsimImport string
}

// Emit renders the program as a self-registering Go source file,
// formatted with go/format (which also parse-checks every statement
// the generator produced).
func (p *Program) Emit(cfg Config) ([]byte, error) {
	if cfg.Package == "" || cfg.Prefix == "" {
		return nil, fmt.Errorf("codegen: Config.Package and Config.Prefix are required")
	}
	imp := cfg.LogicsimImport
	if imp == "" {
		imp = "repro/internal/logicsim"
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by gnlgen. DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n")
	fmt.Fprintf(&b, "// Source: %s\n", cfg.Source)
	fmt.Fprintf(&b, "// Plan: %d ops over %d nodes, hash %#016x.\n", len(p.Ops), p.NumNodes, p.Hash)
	fmt.Fprintf(&b, "//\n")
	fmt.Fprintf(&b, "// Straight-line 64-lane evaluator for this exact netlist, bound to\n")
	fmt.Fprintf(&b, "// compiled plans through logicsim's plan-hash registry. If the netlist\n")
	fmt.Fprintf(&b, "// changes, the hash stops matching and evaluation falls back to the\n")
	fmt.Fprintf(&b, "// interpreter — regenerate with `go generate ./...` (or `make gen`).\n")
	fmt.Fprintf(&b, "package %s\n\n", cfg.Package)
	fmt.Fprintf(&b, "import %q\n\n", imp)
	fmt.Fprintf(&b, "func init() {\n")
	fmt.Fprintf(&b, "\tlogicsim.RegisterGenerated(logicsim.Generated{\n")
	fmt.Fprintf(&b, "\t\tHash:     %#016x,\n", p.Hash)
	fmt.Fprintf(&b, "\t\tNumNodes: %d,\n", p.NumNodes)
	fmt.Fprintf(&b, "\t\tEval:     %sEval,\n", cfg.Prefix)
	fmt.Fprintf(&b, "\t})\n")
	fmt.Fprintf(&b, "}\n")
	p.emitFunc(&b, cfg.Prefix)
	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("codegen: emitted source does not format: %w", err)
	}
	return src, nil
}

// emitFunc writes the evaluator function: a slice-length hint that
// pins len(vals) to a constant (every later constant index is then
// provably in bounds), followed by one assignment per op.
func (p *Program) emitFunc(b *bytes.Buffer, prefix string) {
	fmt.Fprintf(b, "\n// %sEval evaluates the op stream over 64 lanes.\n", prefix)
	fmt.Fprintf(b, "func %sEval(vals []uint64) {\n", prefix)
	fmt.Fprintf(b, "\tvals = vals[:%d]\n", p.NumNodes)
	for i := range p.Ops {
		op := &p.Ops[i]
		fmt.Fprintf(b, "\tvals[%d] = %s\n", op.Out, exprFor(op))
	}
	fmt.Fprintf(b, "}\n")
}

// exprFor renders one op's expression with constant indices.
func exprFor(op *Op) string {
	ref := func(j int) string {
		return fmt.Sprintf("vals[%d]", op.In[j])
	}
	joined := func(sep string) string {
		var e bytes.Buffer
		for j := range op.In {
			if j > 0 {
				e.WriteString(sep)
			}
			e.WriteString(ref(j))
		}
		return e.String()
	}
	switch op.Cell {
	case netlist.Const0:
		return "0"
	case netlist.Const1:
		return "^uint64(0)"
	case netlist.Buf:
		return ref(0)
	case netlist.Inv:
		return "^" + ref(0)
	case netlist.And:
		return joined(" & ")
	case netlist.Nand:
		return "^(" + joined(" & ") + ")"
	case netlist.Or:
		return joined(" | ")
	case netlist.Nor:
		return "^(" + joined(" | ") + ")"
	case netlist.Xor:
		return joined(" ^ ")
	case netlist.Xnor:
		return "^(" + joined(" ^ ") + ")"
	case netlist.Mux2:
		return fmt.Sprintf("(%s &^ %s) | (%s & %s)", ref(0), ref(2), ref(1), ref(2))
	default:
		// Build rejects non-combinational cells; this is unreachable
		// on any Program it produced.
		panic(fmt.Sprintf("codegen: no expression for cell %v", op.Cell))
	}
}

// Generate is Build followed by Emit: netlist in, formatted
// self-registering evaluator source out.
func Generate(nl *netlist.Netlist, cfg Config) ([]byte, error) {
	p, err := Build(nl)
	if err != nil {
		return nil, err
	}
	return p.Emit(cfg)
}
