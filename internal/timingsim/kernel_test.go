package timingsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/timingsim"
)

// sameSweep requires two sweeps of one strike to agree on the result
// and on the wave of every node.
func sameSweep(t *testing.T, label string, nl *netlist.Netlist, a timingsim.Result, sa *timingsim.Simulator,
	b timingsim.Result, sb *timingsim.Simulator) {
	t.Helper()
	if !sameResult(a, b) {
		t.Fatalf("%s: kernel %+v, reference %+v", label, a, b)
	}
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if !slices.Equal(sa.Wave(id), sb.Wave(id)) {
			t.Fatalf("%s: node %d wave %v, reference %v", label, id, sa.Wave(id), sb.Wave(id))
		}
	}
}

// TestKernelMatchesReferenceMPU compares the kernel with the dense
// reference sweep on the bundled MPU, at every cycle of the golden
// attack window, through Inject, InjectBits and InjectPruned: the
// result and every node's wave must be equal. Strikes are importance
// draws, also with one width for every gate, with a gate listed twice
// at another width, and with struck constants, registers and inputs.
func TestKernelMatchesReferenceMPU(t *testing.T) {
	fw, ev, sampler, cycles := mpuWindow(t)
	nl := fw.MPU.Netlist
	kernel, ref := simPair(t, nl, fw.Opts.Delay)
	tables := kernel.CycleTables(cycles)
	var skipped []netlist.NodeID // nodes a strike deposits nothing on
	for i := 0; i < nl.NumNodes(); i++ {
		switch nl.Node(netlist.NodeID(i)).Type {
		case netlist.Const0, netlist.Const1, netlist.DFF, netlist.Input:
			skipped = append(skipped, netlist.NodeID(i))
		}
	}
	rng := rand.New(rand.NewSource(9))
	var swept, flipped int
	for i, vb := range cycles {
		values := bitValues(vb)
		for j := 0; j < 40; j++ {
			smp, _ := sampler.Draw(rng)
			st := ev.Attack.Strike(fw.Place, smp)
			switch j % 4 {
			case 1:
				st.Widths = nil
			case 2:
				if k := len(st.Gates); k > 0 {
					k = rng.Intn(k)
					st.Gates = append(st.Gates, st.Gates[k])
					st.Widths = append(st.Widths, 0.6*st.Widths[k])
				}
			case 3:
				for range 3 {
					st.Gates = append(st.Gates, skipped[rng.Intn(len(skipped))])
					st.Widths = append(st.Widths, st.Width)
				}
			}
			label := fmt.Sprintf("cycle %d strike %d", i, j)
			full := kernel.Inject(values, st)
			sameSweep(t, label+" Inject", nl, full, kernel, ref.Inject(values, st), ref)
			sameSweep(t, label+" InjectBits", nl, kernel.InjectBits(vb, st), kernel, ref.InjectBits(vb, st), ref)
			pruned := kernel.InjectPruned(tables[i], st)
			sameSweep(t, label+" InjectPruned", nl, pruned, kernel, ref.InjectPruned(tables[i], st), ref)
			if pruned.ActiveGates > 0 {
				swept++
			}
			if len(full.FlippedRegs) > 0 {
				flipped++
			}
		}
	}
	t.Logf("%d cycles, %d pruned sweeps, %d flipping strikes", len(cycles), swept, flipped)
	if swept == 0 || flipped == 0 {
		t.Fatal("no strike was swept or flipped a register")
	}
}

// TestCycleFlipTablesMatchEvalCell checks every flip table of every
// cycle of the MPU's attack window against a direct evaluation: bit m
// is set exactly when the cell's output, with the fanins in subset m
// flipped, differs from the node's fault-free value.
func TestCycleFlipTablesMatchEvalCell(t *testing.T) {
	fw, _, _, cycles := mpuWindow(t)
	nl := fw.MPU.Netlist
	sim, err := timingsim.New(nl, fw.Opts.Delay)
	if err != nil {
		t.Fatal(err)
	}
	tables := sim.CycleTables(cycles)
	checked := 0
	for i, ct := range tables {
		val := bitValues(cycles[i])
		for k := 0; k < nl.NumNodes(); k++ {
			id := netlist.NodeID(k)
			tab, ok := ct.FlipTable(sim, id)
			if !ok {
				continue
			}
			node := nl.Node(id)
			in := make([]uint64, len(node.Fanin))
			for m := 0; m < 1<<len(node.Fanin); m++ {
				for j, f := range node.Fanin {
					in[j] = 0
					if val(f) != (m>>j&1 == 1) {
						in[j] = 1
					}
				}
				want := netlist.EvalCell(node.Type, in)&1 == 1 != val(id)
				if got := tab>>m&1 == 1; got != want {
					t.Fatalf("cycle %d node %d (%v): flip table bit %d is %v, EvalCell says %v", i, id, node.Type, m, got, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d cycles, %d table bits checked", len(tables), checked)
}
