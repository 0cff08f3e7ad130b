package hdl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// combHarness elaborates a combinational function of two w-bit inputs
// and returns an evaluator mapping (x, y) to the output value.
func combHarness(t *testing.T, w int, f func(b *Builder, x, y Signal) Signal) func(x, y uint64) uint64 {
	t.Helper()
	b := NewBuilder()
	x := b.Input("x", w)
	y := b.Input("y", w)
	out := f(b, x, y)
	b.Output("out", out)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logicsim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	xs := []netlist.NodeID(x)
	ys := []netlist.NodeID(y)
	os := []netlist.NodeID(out)
	return func(a, c uint64) uint64 {
		sim.DriveWord(xs, a)
		sim.DriveWord(ys, c)
		sim.Eval()
		return sim.ReadWord(os)
	}
}

func TestAddMatchesUint(t *testing.T) {
	eval := combHarness(t, 8, func(b *Builder, x, y Signal) Signal { return b.Add(x, y) })
	f := func(a, c uint8) bool { return eval(uint64(a), uint64(c)) == uint64(a+c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubMatchesUint(t *testing.T) {
	eval := combHarness(t, 8, func(b *Builder, x, y Signal) Signal { return b.Sub(x, y) })
	f := func(a, c uint8) bool { return eval(uint64(a), uint64(c)) == uint64(a-c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCCarryOut(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4)
	y := b.Input("y", 4)
	sum, cout := b.AddC(x, y, b.Const(1, 1))
	b.Output("s", sum)
	b.Output("c", cout)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	for a := uint64(0); a < 16; a++ {
		for c := uint64(0); c < 16; c++ {
			sim.DriveWord([]netlist.NodeID(x), a)
			sim.DriveWord([]netlist.NodeID(y), c)
			sim.Eval()
			total := a + c + 1
			if got := sim.ReadWord([]netlist.NodeID(sum)); got != total%16 {
				t.Fatalf("%d+%d+1: sum %d", a, c, got)
			}
			if got := sim.ReadWord([]netlist.NodeID(cout)); got != total/16 {
				t.Fatalf("%d+%d+1: cout %d", a, c, got)
			}
		}
	}
}

func TestComparators(t *testing.T) {
	w := 6
	ops := map[string]struct {
		build func(b *Builder, x, y Signal) Signal
		want  func(a, c uint64) bool
	}{
		"eq":  {func(b *Builder, x, y Signal) Signal { return b.Eq(x, y) }, func(a, c uint64) bool { return a == c }},
		"ne":  {func(b *Builder, x, y Signal) Signal { return b.Ne(x, y) }, func(a, c uint64) bool { return a != c }},
		"ltu": {func(b *Builder, x, y Signal) Signal { return b.Ltu(x, y) }, func(a, c uint64) bool { return a < c }},
		"leu": {func(b *Builder, x, y Signal) Signal { return b.Leu(x, y) }, func(a, c uint64) bool { return a <= c }},
		"geu": {func(b *Builder, x, y Signal) Signal { return b.Geu(x, y) }, func(a, c uint64) bool { return a >= c }},
		"gtu": {func(b *Builder, x, y Signal) Signal { return b.Gtu(x, y) }, func(a, c uint64) bool { return a > c }},
	}
	rng := rand.New(rand.NewSource(3))
	for name, op := range ops {
		eval := combHarness(t, w, op.build)
		for i := 0; i < 300; i++ {
			a := rng.Uint64() % 64
			c := rng.Uint64() % 64
			want := uint64(0)
			if op.want(a, c) {
				want = 1
			}
			if got := eval(a, c); got != want {
				t.Fatalf("%s(%d, %d) = %d, want %d", name, a, c, got, want)
			}
		}
	}
}

func TestBitwiseOps(t *testing.T) {
	cases := map[string]struct {
		build func(b *Builder, x, y Signal) Signal
		want  func(a, c uint64) uint64
	}{
		"and":  {func(b *Builder, x, y Signal) Signal { return b.And(x, y) }, func(a, c uint64) uint64 { return a & c }},
		"or":   {func(b *Builder, x, y Signal) Signal { return b.Or(x, y) }, func(a, c uint64) uint64 { return a | c }},
		"xor":  {func(b *Builder, x, y Signal) Signal { return b.Xor(x, y) }, func(a, c uint64) uint64 { return a ^ c }},
		"nand": {func(b *Builder, x, y Signal) Signal { return b.Nand(x, y) }, func(a, c uint64) uint64 { return ^(a & c) & 0xFF }},
		"nor":  {func(b *Builder, x, y Signal) Signal { return b.Nor(x, y) }, func(a, c uint64) uint64 { return ^(a | c) & 0xFF }},
		"notx": {func(b *Builder, x, y Signal) Signal { return b.Not(x) }, func(a, c uint64) uint64 { return ^a & 0xFF }},
	}
	for name, tc := range cases {
		eval := combHarness(t, 8, tc.build)
		for a := uint64(0); a < 256; a += 17 {
			for c := uint64(0); c < 256; c += 13 {
				if got := eval(a, c); got != tc.want(a, c) {
					t.Fatalf("%s(%#x, %#x) = %#x, want %#x", name, a, c, got, tc.want(a, c))
				}
			}
		}
	}
}

func TestMux(t *testing.T) {
	b := NewBuilder()
	sel := b.Input("sel", 1)
	x := b.Input("x", 4)
	y := b.Input("y", 4)
	out := b.Mux(sel, x, y)
	b.Output("out", out)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	sim.DriveWord([]netlist.NodeID(x), 0xA)
	sim.DriveWord([]netlist.NodeID(y), 0x5)
	sim.DriveWord([]netlist.NodeID(sel), 0)
	sim.Eval()
	if got := sim.ReadWord([]netlist.NodeID(out)); got != 0xA {
		t.Fatalf("mux(0) = %#x", got)
	}
	sim.DriveWord([]netlist.NodeID(sel), 1)
	sim.Eval()
	if got := sim.ReadWord([]netlist.NodeID(out)); got != 0x5 {
		t.Fatalf("mux(1) = %#x", got)
	}
}

func TestReductions(t *testing.T) {
	eval := combHarness(t, 8, func(b *Builder, x, y Signal) Signal {
		return Concat(b.AndAll(x), b.OrAll(x), b.XorAll(x))
	})
	for a := uint64(0); a < 256; a++ {
		got := eval(a, 0)
		wantAnd := uint64(0)
		if a == 0xFF {
			wantAnd = 1
		}
		wantOr := uint64(0)
		if a != 0 {
			wantOr = 1
		}
		par := uint64(0)
		for i := 0; i < 8; i++ {
			par ^= a >> uint(i) & 1
		}
		want := wantAnd | wantOr<<1 | par<<2
		if got != want {
			t.Fatalf("reductions(%#x) = %#x, want %#x", a, got, want)
		}
	}
}

func TestDecoder(t *testing.T) {
	eval := combHarness(t, 3, func(b *Builder, x, y Signal) Signal { return b.Decoder(x) })
	for a := uint64(0); a < 8; a++ {
		if got := eval(a, 0); got != 1<<a {
			t.Fatalf("decode(%d) = %#x", a, got)
		}
	}
}

func TestSelectOneHot(t *testing.T) {
	b := NewBuilder()
	sel := b.Input("sel", 2)
	x := b.Input("x", 4)
	y := b.Input("y", 4)
	onehot := b.Decoder(sel)
	out := b.SelectOneHot(onehot, []Signal{x, y, b.Const(0xC, 4), b.Const(3, 4)})
	b.Output("out", out)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	sim.DriveWord([]netlist.NodeID(x), 0x9)
	sim.DriveWord([]netlist.NodeID(y), 0x6)
	want := []uint64{0x9, 0x6, 0xC, 0x3}
	for s, w := range want {
		sim.DriveWord([]netlist.NodeID(sel), uint64(s))
		sim.Eval()
		if got := sim.ReadWord([]netlist.NodeID(out)); got != w {
			t.Fatalf("select(%d) = %#x, want %#x", s, got, w)
		}
	}
}

func TestRegisterPipeline(t *testing.T) {
	b := NewBuilder()
	in := b.Input("in", 4)
	r1 := b.Reg("r1", 4, 0)
	r2 := b.Reg("r2", 4, 0)
	r1.SetNext(in)
	r2.SetNext(r1.Q)
	b.Output("out", r2.Q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	seq := []uint64{3, 7, 1, 9, 0}
	var got []uint64
	for _, v := range seq {
		sim.DriveWord([]netlist.NodeID(in), v)
		sim.Step()
		got = append(got, sim.ReadWord([]netlist.NodeID(r2.Q)))
	}
	// Two-stage pipeline: output lags input by 2.
	want := []uint64{0, 3, 7, 1, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle %d: out = %d, want %d (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestRegEnable(t *testing.T) {
	b := NewBuilder()
	en := b.Input("en", 1)
	in := b.Input("in", 4)
	r := b.Reg("r", 4, 5)
	r.SetNextEn(en, in)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	if got := sim.ReadWord([]netlist.NodeID(r.Q)); got != 5 {
		t.Fatalf("init = %d, want 5", got)
	}
	sim.DriveWord([]netlist.NodeID(in), 0xB)
	sim.DriveWord([]netlist.NodeID(en), 0)
	sim.Step()
	if got := sim.ReadWord([]netlist.NodeID(r.Q)); got != 5 {
		t.Fatalf("disabled reg changed to %d", got)
	}
	sim.DriveWord([]netlist.NodeID(en), 1)
	sim.Step()
	if got := sim.ReadWord([]netlist.NodeID(r.Q)); got != 0xB {
		t.Fatalf("enabled reg = %d, want 0xB", got)
	}
}

func TestRegInitValue(t *testing.T) {
	b := NewBuilder()
	r := b.Reg("r", 8, 0xA5)
	r.SetNext(r.Q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	if got := sim.ReadWord([]netlist.NodeID(r.Q)); got != 0xA5 {
		t.Fatalf("init = %#x", got)
	}
	sim.Step()
	if got := sim.ReadWord([]netlist.NodeID(r.Q)); got != 0xA5 {
		t.Fatalf("hold = %#x", got)
	}
}

func TestBuildRejectsUnsetReg(t *testing.T) {
	b := NewBuilder()
	b.Reg("orphan", 2, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted register without next-state")
	}
}

func TestSetNextTwiceErrors(t *testing.T) {
	b := NewBuilder()
	r := b.Reg("r", 1, 0)
	r.SetNext(r.Q)
	r.SetNext(r.Q)
	if b.Err() == nil {
		t.Fatal("second SetNext not recorded as error")
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted double SetNext")
	}
}

func TestWidthMismatchErrors(t *testing.T) {
	cases := []func(b *Builder, x, y Signal){
		func(b *Builder, x, y Signal) { b.And(x, y) },
		func(b *Builder, x, y Signal) { b.Add(x, y) },
		func(b *Builder, x, y Signal) { b.Mux(x, y, y) }, // sel not 1 bit
		func(b *Builder, x, y Signal) { b.Reg("r", 4, 0).SetNext(y) },
		func(b *Builder, x, y Signal) { b.ZeroExtend(y, 4) },
		func(b *Builder, x, y Signal) { b.Repeat(x, 8) }, // source not 1 bit
		func(b *Builder, x, y Signal) { b.Eq(x, y) },
		func(b *Builder, x, y Signal) { b.Ltu(x, y) },
		func(b *Builder, x, y Signal) { b.SelectOneHot(x, []Signal{y, y}) },
	}
	for i, fn := range cases {
		b := NewBuilder()
		x := b.Input("x", 4)
		y := b.Input("y", 5)
		fn(b, x, y) // must not panic
		if b.Err() == nil {
			t.Errorf("case %d: misuse not recorded", i)
			continue
		}
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: Build accepted misused builder", i)
		}
	}
}

func TestMisuseReturnsPlaceholder(t *testing.T) {
	// A failed operation must still return a structurally valid signal
	// so downstream wiring does not panic; only Build reports.
	b := NewBuilder()
	x := b.Input("x", 4)
	y := b.Input("y", 5)
	s := b.And(x, y)
	if s.Width() != 4 {
		t.Fatalf("placeholder width %d, want 4", s.Width())
	}
	b.Output("o", b.Or(s, s)) // keep wiring after the failure
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted failed construction")
	}
}

func TestSignalSlicing(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 8)
	hi := x.Bits(7, 4)
	lo := x.Bits(3, 0)
	re := Concat(lo, hi)
	b.Output("out", re)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	sim.DriveWord([]netlist.NodeID(x), 0xA7)
	sim.Eval()
	if got := sim.ReadWord([]netlist.NodeID(re)); got != 0xA7 {
		t.Fatalf("reassembled = %#x", got)
	}
	if x.Bit(3).Width() != 1 || hi.Width() != 4 {
		t.Fatal("widths wrong")
	}
}

func TestZeroExtendAndRepeat(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 3)
	s := b.Input("s", 1)
	ze := b.ZeroExtend(x, 6)
	rp := b.Repeat(s, 4)
	b.Output("ze", ze)
	b.Output("rp", rp)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	sim.DriveWord([]netlist.NodeID(x), 5)
	sim.DriveWord([]netlist.NodeID(s), 1)
	sim.Eval()
	if got := sim.ReadWord([]netlist.NodeID(ze)); got != 5 {
		t.Fatalf("ZeroExtend = %d", got)
	}
	if got := sim.ReadWord([]netlist.NodeID(rp)); got != 0xF {
		t.Fatalf("Repeat = %#x", got)
	}
}

func TestRegGroupsNaming(t *testing.T) {
	b := NewBuilder()
	r := b.Reg("cfg_base", 4, 0)
	r.SetNext(r.Q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	groups := b.RegGroups()
	bits, ok := groups["cfg_base"]
	if !ok || len(bits) != 4 {
		t.Fatalf("RegGroups = %v", groups)
	}
	for i, id := range bits {
		if nl.Node(id).Type != netlist.DFF {
			t.Fatalf("bit %d is not a DFF", i)
		}
	}
	if nl.Node(bits[2]).Name != "cfg_base[2]" {
		t.Fatal("per-bit naming broken")
	}
}

func TestIncWraps(t *testing.T) {
	eval := combHarness(t, 4, func(b *Builder, x, y Signal) Signal { return b.Inc(x) })
	for a := uint64(0); a < 16; a++ {
		if got := eval(a, 0); got != (a+1)%16 {
			t.Fatalf("Inc(%d) = %d", a, got)
		}
	}
}

func TestConstWidthAndValue(t *testing.T) {
	b := NewBuilder()
	c := b.Const(0x2D, 8)
	b.Output("c", c)
	// Tie a dummy reg so Build passes with no inputs.
	r := b.Reg("r", 1, 0)
	r.SetNext(r.Q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := logicsim.New(nl)
	sim.Eval()
	if got := sim.ReadWord([]netlist.NodeID(c)); got != 0x2D {
		t.Fatalf("const = %#x", got)
	}
}

func TestAdd16MatchesUint(t *testing.T) {
	eval := combHarness(t, 16, func(b *Builder, x, y Signal) Signal { return b.Add(x, y) })
	f := func(a, c uint16) bool { return eval(uint64(a), uint64(c)) == uint64(a+c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSub16AndCompare16(t *testing.T) {
	evalSub := combHarness(t, 16, func(b *Builder, x, y Signal) Signal { return b.Sub(x, y) })
	evalLt := combHarness(t, 16, func(b *Builder, x, y Signal) Signal { return b.Ltu(x, y) })
	f := func(a, c uint16) bool {
		if evalSub(uint64(a), uint64(c)) != uint64(a-c) {
			return false
		}
		want := uint64(0)
		if a < c {
			want = 1
		}
		return evalLt(uint64(a), uint64(c)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecoderWidth4(t *testing.T) {
	eval := combHarness(t, 4, func(b *Builder, x, y Signal) Signal { return b.Decoder(x) })
	for a := uint64(0); a < 16; a++ {
		if got := eval(a, 0); got != 1<<a {
			t.Fatalf("decode4(%d) = %#x", a, got)
		}
	}
}

func TestDecoderTooWideErrors(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 17)
	b.Decoder(x) // must not panic
	if b.Err() == nil {
		t.Fatal("oversized Decoder not recorded as error")
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted oversized Decoder")
	}
}

func TestBufPreservesValue(t *testing.T) {
	eval := combHarness(t, 8, func(b *Builder, x, y Signal) Signal { return b.Buf(x) })
	for a := uint64(0); a < 256; a += 37 {
		if eval(a, 0) != a {
			t.Fatalf("Buf(%#x) altered the value", a)
		}
	}
}
