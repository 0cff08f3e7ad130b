package timingsim

import (
	"testing"

	"repro/internal/netlist"
)

// buildWideOr returns a netlist whose OR gate sees `fan` single-interval
// fanin waves when all bufs are struck: `fan` distinct interval ends
// means `fan` spans at the OR, so propagate's span sweep runs several
// 64-span chunks.
func buildWideOr(t *testing.T, fan int) (*netlist.Netlist, []netlist.NodeID) {
	t.Helper()
	nl := netlist.New(fan + 8)
	a := nl.AddInput("a")
	bufs := make([]netlist.NodeID, fan)
	for i := range bufs {
		bufs[i] = nl.AddGate(netlist.Buf, a)
	}
	or := nl.AddGate(netlist.Or, bufs...)
	nl.AddDFF(or, "cap", false)
	inv := nl.AddGate(netlist.Inv, or)
	nl.AddDFF(inv, "capn", true)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, bufs
}

// TestPropagateManySpans strikes 300 buffers feeding one OR with
// staggered pulse widths, so the OR's span sweep sees ~300 spans and
// loops over five 64-span chunks. The sparse sweep must match the
// dense reference sweep in the result and in every node's waveform,
// and the strike must flip exactly the registers pinned below.
func TestPropagateManySpans(t *testing.T) {
	const fan = 300
	nl, bufs := buildWideOr(t, fan)
	dm := DefaultDelayModel()
	st := Strike{Gates: bufs, Time: 500, Widths: make([]float64, fan)}
	for i := range st.Widths {
		// Distinct widths: 300 distinct interval ends → ~300 spans at
		// the OR. The longest pulses cross the latch window
		// [ClockPeriod-Setup, ClockPeriod+Hold] = [575, 610].
		st.Widths[i] = 20 + 0.5*float64(i)
	}
	values := func(netlist.NodeID) bool { return false }

	sparse, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetReferenceSweep(true)
	got := sparse.Inject(values, st)
	want := ref.Inject(values, st)
	if !resultsEqual(got, want) {
		t.Fatalf("sparse %+v, reference %+v", got, want)
	}
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if !wavesEqual(sparse.Wave(id), ref.Wave(id)) {
			t.Fatalf("node %d waveform diverges from the reference sweep", id)
		}
	}
	// The OR's span count is the number of distinct event points on
	// its fanin waves minus one; the sweep must run several chunks.
	events := map[float64]bool{}
	for _, b := range bufs {
		for _, iv := range sparse.Wave(b) {
			events[iv.Start], events[iv.End] = true, true
		}
	}
	if spans := len(events) - 1; spans <= 3*64 {
		t.Fatalf("OR sees %d spans, want more than %d", spans, 3*64)
	}
	var names []string
	for _, r := range got.FlippedRegs {
		names = append(names, nl.Node(r).Name)
	}
	if len(names) != 2 || names[0] != "cap" || names[1] != "capn" {
		t.Fatalf("flipped registers %v, want [cap capn]", names)
	}
}
