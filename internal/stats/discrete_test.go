package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestDiscreteRejectsNonFinite(t *testing.T) {
	for _, w := range [][]float64{
		{1, math.Inf(1)},
		{1, math.Inf(-1)},
		{1e308, 1e308}, // each finite, the total overflows
	} {
		if d, err := NewDiscrete(w); err == nil {
			t.Errorf("NewDiscrete(%v) accepted: probs %v", w, d.probs)
		}
	}
}

// randomWeights draws a weight vector of one of five shapes: plain
// random weights with zeros, all-equal weights, masses below the ulp of
// the running sum, heavy-tailed weights, and one mass among zeros.
func randomWeights(rng *rand.Rand) []float64 {
	n := 1 + rng.Intn(1+rng.Intn(3000))
	w := make([]float64, n)
	switch rng.Intn(5) {
	case 0:
		for i := range w {
			if rng.Float64() >= 0.3 {
				w[i] = rng.Float64()
			}
		}
	case 1:
		v := []float64{1, 0.1, 1.0 / 3, 7e-9}[rng.Intn(4)]
		for i := range w {
			w[i] = v
		}
	case 2:
		for i := range w {
			switch rng.Intn(3) {
			case 0:
				w[i] = 1 + rng.Float64()
			case 1:
				w[i] = math.Ldexp(rng.Float64(), -60-rng.Intn(900))
			}
		}
	case 3:
		for i := range w {
			w[i] = math.Exp(20 * rng.NormFloat64())
		}
	case 4:
		w[rng.Intn(n)] = rng.Float64() + 0.5
	}
	if slices.Max(w) == 0 {
		w[rng.Intn(n)] = 1
	}
	return w
}

// checkGuide holds d.Sample to the full binary search at u, at every
// cumulative value and its two neighbours, and at every bucket edge.
func checkGuide(t *testing.T, d *Discrete, us []float64) {
	t.Helper()
	check := func(u float64) {
		if got, want := d.Sample(u), d.SampleSearch(u); got != want {
			t.Fatalf("n=%d, %d buckets: Sample(%v) = %d, search gives %d", d.Len(), d.GuideBuckets(), u, got, want)
		}
	}
	for _, u := range us {
		check(u)
	}
	for _, c := range d.Cum() {
		check(c)
		check(math.Nextafter(c, math.Inf(-1)))
		check(math.Nextafter(c, math.Inf(1)))
	}
	k := d.GuideBuckets()
	for b := 0; b <= k; b++ {
		check(float64(b) / float64(k))
	}
}

// TestDiscreteGuideMatchesSearch: on thousands of random weight
// vectors the guide returns exactly the index of the binary search over
// the whole cumulative table, and its bucket count is the power of two
// at or above 4n, capped at 4096 (no guide once an index needs more
// than 16 bits).
func TestDiscreteGuideMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vectors := 3000
	if testing.Short() {
		vectors = 300
	}
	us := make([]float64, 64)
	for v := 0; v < vectors; v++ {
		w := randomWeights(rng)
		d, err := NewDiscrete(w)
		if err != nil {
			t.Fatal(err)
		}
		k := d.GuideBuckets()
		if want := min(4096, 1<<uint(math.Ceil(math.Log2(float64(4*len(w)))))); k != want {
			t.Fatalf("n=%d: %d buckets, want %d", len(w), k, want)
		}
		for i := range us {
			us[i] = rng.Float64()
		}
		checkGuide(t, d, us)
	}
	wide := make([]float64, 1<<16+1)
	for i := range wide {
		wide[i] = rng.Float64()
	}
	d, err := NewDiscrete(wide)
	if err != nil {
		t.Fatal(err)
	}
	if d.GuideBuckets() != 0 {
		t.Fatalf("%d-entry table has a %d-bucket guide", len(wide), d.GuideBuckets())
	}
	checkGuide(t, d, us)
}

// FuzzDiscreteSample decodes a weight vector from the input, two bytes
// a weight (a mantissa byte and a signed power of two, so zeros, equal
// weights and masses far below the running sum's ulp are all common),
// and holds Sample to the full binary search at u and at every
// cumulative value and bucket edge.
func FuzzDiscreteSample(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0}, 0.25)
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 0}, 1.0/3)
	f.Add([]byte{255, 127, 1, 128, 255, 127}, 0.999999)
	f.Add([]byte{3, 0, 3, 0, 3, 0}, 2.0/3)
	f.Fuzz(func(t *testing.T, data []byte, u float64) {
		if len(data) < 2 || len(data) > 2*4096 {
			return
		}
		w := make([]float64, len(data)/2)
		for i := range w {
			v := binary.LittleEndian.Uint16(data[2*i:])
			w[i] = math.Ldexp(float64(v&0xff), int(int8(v>>8)))
		}
		d, err := NewDiscrete(w)
		if err != nil {
			return
		}
		checkGuide(t, d, []float64{u})
	})
}
