package sampling

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/soc"
	"repro/internal/stats"
)

// shared fixture: characterized MPU + placement + attack.
var (
	fixOnce  sync.Once
	fixChar  *precharac.Characterization
	fixNl    *netlist.Netlist
	fixPlace *placement.Placement
	fixErr   error
)

func fixture(t *testing.T) (*precharac.Characterization, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	fixOnce.Do(func() {
		cfg := soc.DefaultConfig()
		s, err := soc.New(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit))
		if err != nil {
			fixErr = err
			return
		}
		opts := precharac.DefaultOptions()
		opts.MaxDepth = 21
		opts.TraceCycles = 512
		opts.LifetimeCap = 60
		opts.MemLifetimeMin = 40
		opts.Probes = 1
		fixChar, fixErr = precharac.Characterize(s, opts)
		fixNl = s.MPU.Netlist
		fixPlace = placement.Place(fixNl)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixChar, fixNl, fixPlace
}

func fixtureAttack(t *testing.T, tRange int) *fault.Attack {
	t.Helper()
	_, nl, _ := fixture(t)
	var cands []netlist.NodeID
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		ty := nl.Node(id).Type
		if ty.IsCombinational() && ty != netlist.Const0 && ty != netlist.Const1 {
			cands = append(cands, id)
		}
	}
	a, err := fault.NewAttack("test", tRange, fault.DefaultRadiation(), cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRandomSamplerWeightsAreOne(t *testing.T) {
	a := fixtureAttack(t, 10)
	r := &Random{Attack: a}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s, w := r.Draw(rng)
		if w != 1 {
			t.Fatalf("weight %v", w)
		}
		if a.Density(s) == 0 {
			t.Fatalf("random sample outside f support: %+v", s)
		}
	}
	tp := r.TimingProbs()
	if len(tp) != 10 || math.Abs(tp[0]-0.1) > 1e-12 {
		t.Errorf("TimingProbs = %v", tp)
	}
}

// TestImportanceRejectsExcessiveTRange: the candidate layers Ω_t come
// from the characterization's cones, so a TRange beyond its unroll depth
// is an error, not a sampler with missing layers.
func TestImportanceRejectsExcessiveTRange(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, char.MaxUnrollIndex()+2)
	if _, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta); err == nil {
		t.Error("TRange beyond characterized depth accepted")
	}
	a = fixtureAttack(t, char.MaxUnrollIndex()+1)
	if _, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta); err != nil {
		t.Errorf("TRange at the characterized depth: %v", err)
	}
}

func TestImportanceConstruction(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, 10)
	if _, err := NewImportance(a, char, nl, place, -1, 1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewImportance(a, char, nl, place, 1, -1); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := NewImportance(a, char, nl, place, 1e308, 1); err == nil {
		t.Error("alpha 1e308 accepted: its weights overflow")
	}
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	probs := im.TimingProbs()
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("g_T sums to %v", sum)
	}
	// g_T must concentrate on small timing distances relative to
	// uniform (the decision logic correlates there).
	if probs[0] <= 1.0/10 {
		t.Errorf("g_T(0) = %v, expected above uniform 0.1", probs[0])
	}
}

// TestImportanceSharesEqualTables: two timing distances share one
// layer table and centerP row exactly when their Ω_t and their tables
// are equal, and past the characterization's depth some do.
func TestImportanceSharesEqualTables(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, char.MaxUnrollIndex()+1)
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	probs := func(d *stats.Discrete) []float64 {
		out := make([]float64, d.Len())
		for i := range out {
			out[i] = d.Prob(i)
		}
		return out
	}
	shared := 0
	for t1 := range im.pDists {
		for t2 := t1 + 1; t2 < len(im.pDists); t2++ {
			d1, d2 := im.pDists[t1], im.pDists[t2]
			if d1 == nil || d2 == nil {
				continue
			}
			equal := slices.Equal(im.layers[t1], im.layers[t2]) && slices.Equal(probs(d1), probs(d2))
			rowShared := &im.centerP[t1][0] == &im.centerP[t2][0]
			if (d1 == d2) != equal || rowShared != equal {
				t.Fatalf("t=%d, %d: table shared %v, centerP row shared %v, equal %v", t1, t2, d1 == d2, rowShared, equal)
			}
			if equal {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Errorf("no two of %d timing distances share a table", a.TRange)
	}
}

func TestImportanceCenterProbConsistency(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, 8)
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 8; tt++ {
		sum := 0.0
		for _, g := range im.layers[tt] {
			p := im.CenterProb(tt, g)
			if p < 0 {
				t.Fatalf("negative center prob")
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("g_P|T(t=%d) sums to %v", tt, sum)
		}
	}
	if im.CenterProb(-1, 0) != 0 || im.CenterProb(100, 0) != 0 {
		t.Error("out-of-range CenterProb should be 0")
	}
}

func TestImportanceWeightsBounded(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, 10)
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	bound := 1/im.mixUniform + 1e-9
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		_, w := im.Draw(rng)
		if w <= 0 || w > bound {
			t.Fatalf("weight %v outside (0, %v]", w, bound)
		}
	}
}

// TestImportanceUnbiased verifies the estimator identity
// E_g[(f/g)·h(X)] = E_f[h(X)] on a simple h.
func TestImportanceUnbiased(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, 10)
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const n = 400000
	est := 0.0
	for i := 0; i < n; i++ {
		s, w := im.Draw(rng)
		if s.T < 3 {
			est += w
		}
	}
	est /= n
	want := 3.0 / 10
	if math.Abs(est-want) > 0.01 {
		t.Errorf("importance estimate of P(T<3) = %v, want %v", est, want)
	}
}

func TestImportanceUnbiasedOnCenters(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, 6)
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	// h = indicator that the center id is even: under f exactly the
	// fraction of even candidates.
	even := 0
	for _, g := range a.Candidates {
		if g%2 == 0 {
			even++
		}
	}
	want := float64(even) / float64(len(a.Candidates))
	rng := rand.New(rand.NewSource(5))
	const n = 400000
	est := 0.0
	for i := 0; i < n; i++ {
		s, w := im.Draw(rng)
		if s.Center%2 == 0 {
			est += w
		}
	}
	est /= n
	if math.Abs(est-want) > 0.02 {
		t.Errorf("importance estimate %v, want %v", est, want)
	}
}

func TestLayersRespectCandidateSubset(t *testing.T) {
	char, nl, place := fixture(t)
	full := fixtureAttack(t, 6)
	// Restrict candidates to half the gates; layers must not contain
	// the excluded ones.
	half := full.Candidates[:len(full.Candidates)/2]
	a, err := fault.NewAttack("half", 6, fault.DefaultRadiation(), half, nil)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := candidateLayers(a, char, nl, newCandidateSpots(a, nl, place))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[netlist.NodeID]bool{}
	for _, g := range half {
		allowed[g] = true
	}
	for tt, layer := range layers {
		for _, g := range layer {
			if !allowed[g] {
				t.Fatalf("layer %d contains non-candidate %d", tt, g)
			}
		}
	}
}

func TestImportanceBetaSweepConstructs(t *testing.T) {
	char, nl, place := fixture(t)
	a := fixtureAttack(t, 10)
	for _, beta := range []float64{0, 0.5, 1, 5, 100} {
		im, err := NewImportance(a, char, nl, place, DefaultAlpha, beta)
		if err != nil {
			t.Fatalf("beta=%v: %v", beta, err)
		}
		sum := 0.0
		for _, p := range im.TimingProbs() {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("beta=%v: g_T sums to %v", beta, sum)
		}
	}
}

func TestImportanceAlphaZeroStillValid(t *testing.T) {
	// With alpha=0 the distribution degenerates to uniform over the
	// (dilated) cone layers — weights must stay well-formed.
	char, nl, place := fixture(t)
	a := fixtureAttack(t, 10)
	im, err := NewImportance(a, char, nl, place, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		_, w := im.Draw(rng)
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("weight %v", w)
		}
	}
}
