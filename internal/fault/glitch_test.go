package fault

import (
	"math"
	"testing"
)

// TestDepthPieces: the default depth distribution split at two cuts
// inside its range and one outside, and a range clipped at the clock
// period, where the clipped mass is a point at 600 ps.
func TestDepthPieces(t *testing.T) {
	c := DefaultClockGlitch() // U[150, 450] on a 600 ps period
	got := c.DepthPieces([]float64{400, 100, 200, 400, 700})
	want := []DepthPiece{{175, 50.0 / 300}, {300, 200.0 / 300}, {425, 50.0 / 300}}
	checkPieces(t, got, want)

	c.Depth = 550 // U[400, 700]: a third clipped to 600
	checkPieces(t, c.DepthPieces(nil), []DepthPiece{{500, 2.0 / 3}, {600, 1.0 / 3}})
	c.Depth = -50 // U[-200, 100]: two thirds clipped to 0
	checkPieces(t, c.DepthPieces([]float64{0, 50}), []DepthPiece{{0, 2.0 / 3}, {25, 1.0 / 6}, {75, 1.0 / 6}})
	c.DepthJitter = 0
	checkPieces(t, c.DepthPieces([]float64{50}), []DepthPiece{{0, 1}})
}

func checkPieces(t *testing.T, got, want []DepthPiece) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pieces %v, want %v", got, want)
	}
	for i := range got {
		if got[i].Depth != want[i].Depth || math.Abs(got[i].Mass-want[i].Mass) > 1e-15 {
			t.Fatalf("pieces %v, want %v", got, want)
		}
	}
}

// FuzzDepthPieces: for every technique NewGlitchAttack accepts and any
// cuts, the pieces have positive masses that sum to 1 within 1e-12,
// strictly rising depths in [0, ClockPeriod], and no NaN.
func FuzzDepthPieces(f *testing.F) {
	f.Add(300.0, 150.0, 600.0, 200.0, 400.0, 311.0)
	f.Add(550.0, 150.0, 600.0, 600.0, 0.0, 450.0)
	f.Add(-1e308, 1e308, 1e308, 5e-324, 1e-300, math.Inf(1))
	f.Add(1.0, 1e-20, 600.0, 1.0, math.Nextafter(1, 0), math.NaN())
	f.Fuzz(func(t *testing.T, depth, jitter, period, c1, c2, c3 float64) {
		tech := ClockGlitch{Depth: depth, DepthJitter: jitter, ClockPeriod: period}
		if _, err := NewGlitchAttack("fuzz", 1, tech); err != nil {
			return
		}
		pieces := tech.DepthPieces([]float64{c1, c2, c3})
		sum := 0.0
		for i, p := range pieces {
			if !(p.Mass > 0) || p.Mass > 1 || math.IsNaN(p.Depth) {
				t.Fatalf("%+v: piece %d is %+v", tech, i, p)
			}
			if p.Depth < 0 || p.Depth > period || (i > 0 && p.Depth <= pieces[i-1].Depth) {
				t.Fatalf("%+v: depths %v do not rise strictly inside [0, %v]", tech, pieces, period)
			}
			sum += p.Mass
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%+v, cuts %v %v %v: masses %v sum to %v", tech, c1, c2, c3, pieces, sum)
		}
	})
}
