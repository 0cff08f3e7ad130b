package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/stats"
)

func fixtureImportance(t *testing.T, tRange int) *Importance {
	t.Helper()
	char, nl, place := fixture(t)
	a := fixtureAttack(t, tRange)
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func fixtureStratified(t *testing.T, tRange int) *Stratified {
	t.Helper()
	sp, err := NewStratified(fixtureImportance(t, tRange))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// varianceSamplers enumerates every sampler variant of the
// variance-reduction layer, including forked streams, for the shared
// property tests.
func varianceSamplers(t *testing.T) map[string]Sampler {
	t.Helper()
	a := fixtureAttack(t, 10)
	im := fixtureImportance(t, 10)
	strat := fixtureStratified(t, 10)
	return map[string]Sampler{
		"random":            &Random{Attack: a},
		"importance":        im,
		"stratified":        strat,
		"stratified-stream": strat.Fork(),
	}
}

// TestTimingProbsSumToOne: every sampler's declared per-timing-distance
// draw distribution is a probability distribution.
func TestTimingProbsSumToOne(t *testing.T) {
	for name, sp := range varianceSamplers(t) {
		sum := 0.0
		for _, p := range sp.TimingProbs() {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("%s: bad timing prob %v", name, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: timing probs sum to %v", name, sum)
		}
	}
}

// TestDrawWeightsFinitePositive: across seeds, every draw's likelihood
// ratio is finite and strictly positive (a zero or infinite weight
// would silently corrupt the estimator), and Stratal samplers produce
// equally well-formed conditional weights.
func TestDrawWeightsFinitePositive(t *testing.T) {
	for name, sp := range varianceSamplers(t) {
		for seed := int64(1); seed <= 4; seed++ {
			s := sp
			if f, ok := s.(Forker); ok {
				s = f.Fork()
			}
			rng := rand.New(rand.NewSource(seed))
			st, _ := s.(Stratal)
			for i := 0; i < 256; i++ {
				smp, w := s.Draw(rng)
				if !(w > 0) || math.IsInf(w, 0) {
					t.Fatalf("%s seed %d draw %d: weight %v", name, seed, i, w)
				}
				if st != nil {
					cw := st.ConditionalWeight(smp, w)
					if !(cw > 0) || math.IsInf(cw, 0) {
						t.Fatalf("%s seed %d draw %d: conditional weight %v", name, seed, i, cw)
					}
					if k := st.StratumOf(smp); k < 0 || k >= st.NumStrata() {
						t.Fatalf("%s: stratum %d outside [0, %d)", name, k, st.NumStrata())
					}
				}
			}
		}
	}
}

// TestStratifiedScheduleMatchesAllocation: the largest-remainder
// schedule serves each stratum its allocation share to within a single
// draw, with no randomness.
func TestStratifiedScheduleMatchesAllocation(t *testing.T) {
	strat := fixtureStratified(t, 10)
	stream := strat.Fork()
	const n = 10000
	counts := make(map[int]int)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		smp, _ := stream.Draw(rng)
		counts[smp.T]++
	}
	for k, a := range strat.Allocation() {
		got := float64(counts[k])
		if math.Abs(got-a*n) > 1.5 {
			t.Errorf("stratum %d: %v draws, allocation wants %v", k, got, a*n)
		}
	}
}

// TestImportanceAdaptRetilts: hits concentrated on one timing distance
// pull the re-tuned g_T toward it, the floor keeps every non-empty
// layer explored, and the receiver is never mutated.
func TestImportanceAdaptRetilts(t *testing.T) {
	im := fixtureImportance(t, 10)
	before := im.TimingProbs()

	// No signal: the sampler is returned unchanged.
	same, err := im.Adapt(AdaptState{Draws: make([]int, 10), Hits: make([]int, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if same != Sampler(im) {
		t.Error("no-signal Adapt did not return the receiver")
	}

	// Find a timing distance with a non-empty layer to concentrate on.
	target := -1
	for u, p := range before {
		if p > 0 {
			target = u
		}
	}
	if target < 0 {
		t.Fatal("no non-empty layer in fixture")
	}
	draws := make([]int, 10)
	hits := make([]int, 10)
	for u := range draws {
		draws[u] = 100
	}
	hits[target] = 50
	ad, err := im.Adapt(AdaptState{Draws: draws, Hits: hits})
	if err != nil {
		t.Fatal(err)
	}
	after := ad.TimingProbs()
	maxP, argmax := 0.0, -1
	sum := 0.0
	for u, p := range after {
		sum += p
		if p > maxP {
			maxP, argmax = p, u
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("adapted probs sum to %v", sum)
	}
	if argmax != target {
		t.Errorf("adapted mode at t=%d, hits were at t=%d", argmax, target)
	}
	for u, p := range after {
		if before[u] > 0 && p < DefaultAdaptFloor*maxP-1e-15 {
			t.Errorf("t=%d: prob %v below floor of max %v", u, p, maxP)
		}
		if before[u] == 0 && p != 0 {
			t.Errorf("t=%d: empty layer received probability %v", u, p)
		}
	}
	for u, p := range im.TimingProbs() {
		if p != before[u] {
			t.Fatal("Adapt mutated the receiver")
		}
	}
}

// TestStratifiedAdaptNeyman: the re-tuned allocation follows
// pi_k * sigma_k — the stratum with the dominant observed variance
// gets the dominant share of future draws.
func TestStratifiedAdaptNeyman(t *testing.T) {
	strat := fixtureStratified(t, 10)
	alloc := strat.Allocation()
	target := -1
	for k, a := range alloc {
		if a > 0 {
			target = k
		}
	}
	acc, err := stats.NewStratified(strat.TimingProbs())
	if err != nil {
		// Allocation is a valid distribution; reuse the strata shape
		// from the sampler's own probabilities instead.
		t.Fatal(err)
	}
	// Feed every allocated stratum a flat signal, the target a noisy one.
	for k, a := range alloc {
		if a == 0 {
			continue
		}
		for i := 0; i < 50; i++ {
			x := 0.1
			if k == target && i%2 == 0 {
				x = 5.0
			}
			acc.Add(k, x, 1, x > 1)
		}
	}
	ad, err := strat.Adapt(AdaptState{Strata: acc})
	if err != nil {
		t.Fatal(err)
	}
	tuned, ok := ad.(*Stratified)
	if !ok {
		t.Fatalf("Adapt returned %T", ad)
	}
	after := tuned.Allocation()
	maxA, argmax := 0.0, -1
	for k, a := range after {
		if a > maxA {
			maxA, argmax = a, k
		}
	}
	if argmax != target {
		t.Errorf("Neyman allocation peaked at stratum %d, variance was at %d", argmax, target)
	}
	for k, a := range strat.Allocation() {
		if a != alloc[k] {
			t.Fatal("Adapt mutated the receiver")
		}
	}
}

// TestDrawWeightsMatchDensity checks, bit for bit over 1e5 draws each,
// that the importance and stratified weights, which read g_{P|T} from
// the drawn layer index, equal the weights recomputed from the sample
// alone through density and centerProb.
func TestDrawWeightsMatchDensity(t *testing.T) {
	im := fixtureImportance(t, 10)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100000; i++ {
		s, w := im.Draw(rng)
		f := im.attack.Density(s)
		want := f / (im.mixUniform*f + (1-im.mixUniform)*im.density(s))
		if math.Float64bits(w) != math.Float64bits(want) {
			t.Fatalf("importance draw %d %+v: weight %v, density formula %v", i, s, w, want)
		}
	}
	st := fixtureStratified(t, 10)
	stream := st.Fork()
	for i := 0; i < 100000; i++ {
		s, w := stream.Draw(rng)
		k := s.T
		g := im.mixLayer/float64(len(im.layers[k])) + (1-im.mixLayer)*st.inner.centerProb(k, s.Center)
		want := im.attack.CenterProb(s.Center) / g * st.probs[k] / st.alloc[k]
		if math.Float64bits(w) != math.Float64bits(want) {
			t.Fatalf("stratified draw %d %+v: weight %v, centerProb formula %v", i, s, w, want)
		}
	}
}

// TestDrawsCarryImpactCycles: under a multi-cycle technique every draw
// of every sampler disturbs the technique's number of cycles; the
// engine reads a draw's Cycles, so a sampler that left it 0 would
// estimate a single-cycle attack.
func TestDrawsCarryImpactCycles(t *testing.T) {
	char, nl, place := fixture(t)
	tech := fault.DefaultRadiation()
	tech.ImpactCycles = 3
	a, err := fault.NewAttack("multi", 10, tech, fixtureAttack(t, 10).Candidates, nil)
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImportance(a, char, nl, place, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := NewStratified(im)
	if err != nil {
		t.Fatal(err)
	}
	for name, sp := range map[string]Sampler{
		"random": &Random{Attack: a}, "importance": im, "stratified": strat.Fork(),
	} {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			if s, _ := sp.Draw(rng); s.Cycles != 3 {
				t.Fatalf("%s draw %d: Cycles %d, want 3", name, i, s.Cycles)
			}
		}
	}
}
