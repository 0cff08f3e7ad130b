package server

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/montecarlo"
	"repro/internal/netlist"
)

// decodeRequest decodes a request body as the handlers do.
func decodeRequest(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// fuzzCap turns a fuzzed sample cap into one the server can run with:
// Config replaces a non-positive cap with its default.
func fuzzCap(c int) int {
	if c <= 0 {
		return 1 << 22
	}
	return c
}

// FuzzJobRequest feeds arbitrary bodies to the job-submit decoding:
// JSON decode, then normalize under a fuzzed sample cap. Neither may
// panic, and an accepted job must name a known mode and sampler and
// translate into engine options the round loop accepts, with
// 0 < MinSamples ≤ MaxSamples ≤ cap: a fixed-size job pins
// MinSamples == MaxSamples and needs no stopping criterion, an adaptive
// one has a valid criterion.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		`{"samples": 1000, "seed": 3}`,
		`{"epsilon": 0.001, "risk": 0.05, "sampler": "stratified", "mode": "register", "seed": 1}`,
		`{"epsilon": 1e-4, "min_samples": 5000, "max_samples": 4000, "seed": 2}`,
		`{"epsilon": 0.01, "max_samples": 10, "check_every": 3, "batch": true, "seed": 4}`,
		`{"samples": 10, "epsilon": 0.01}`,
		`{"samples": -1, "sampler": "sobol"}`,
		`{}`,
		`{"samples": 100, "check_every": 4611686018427387904, "sampler": "random"}`,
	} {
		f.Add([]byte(body), 1<<22)
		f.Add([]byte(body), 1000)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxSamples int) {
		maxSamples = fuzzCap(maxSamples)
		var req JobRequest
		if decodeRequest(data, &req) != nil || req.normalize(maxSamples) != nil {
			return
		}
		if _, err := montecarlo.ParseMode(req.Mode); err != nil {
			t.Fatalf("accepted job %+v: %v", req, err)
		}
		if err := checkSampler(req.Sampler); err != nil {
			t.Fatalf("accepted job %+v: %v", req, err)
		}
		o := req.adaptiveOptions()
		if o.MinSamples <= 0 || o.MinSamples > o.MaxSamples || o.MaxSamples > maxSamples {
			t.Fatalf("accepted job %+v runs with min %d, max %d samples under cap %d",
				req, o.MinSamples, o.MaxSamples, maxSamples)
		}
		fixed := req.Samples > 0 && o.MinSamples == o.MaxSamples
		criterion := o.Epsilon > 0 && o.Risk > 0 && o.Risk < 1
		if !(fixed || criterion) || o.CheckEvery < 1 {
			t.Fatalf("accepted job %+v runs with min %d, max %d samples, epsilon %v, risk %v, check every %d",
				req, o.MinSamples, o.MaxSamples, o.Epsilon, o.Risk, o.CheckEvery)
		}
	})
}

// rankNetlist is a small netlist to check rank requests against: an
// input (node 0), registers at nodes 1 to 3, and a gate (node 4).
func rankNetlist() *netlist.Netlist {
	nl := netlist.New(5)
	in := nl.AddInput("in")
	r1 := nl.AddDFF(in, "r1", false)
	nl.AddDFF(in, "r2", false)
	nl.AddDFF(in, "r3", false)
	nl.AddGate(netlist.Inv, r1)
	return nl
}

// FuzzRankRequest is FuzzJobRequest for rank requests: an accepted
// request names a known mode and sampler, asks for 1..cap samples and
// 1..maxVariants variants with distinct non-empty names, and each
// variant names exactly one register selection, only distinct
// registers of the netlist in an explicit set, a share within [0, 1],
// and cell parameters of at least 1.
func FuzzRankRequest(f *testing.F) {
	nl := rankNetlist()
	for _, body := range []string{
		`{"samples": 2000, "seed": 1, "variants": [{"name": "top", "top_n": 3}, {"share": 0.95}]}`,
		`{"samples": 500, "variants": [{"top_n": 3, "resilience": 10}]}`,
		`{"samples": 500, "mode": "register", "variants": [{"regs": [1, 2, 3], "resilience": 10, "area_factor": 0.5}]}`,
		`{"samples": 500, "variants": [{"name": "a", "top_n": 1}, {"name": "a", "top_n": 2}]}`,
		`{"samples": 500, "variants": [{"top_n": 1, "share": 0.5}]}`,
		`{"samples": 500, "variants": [{"share": 1.5}]}`,
		`{"samples": 0, "variants": []}`,
		`{}`,
		`{"samples": 50, "sampler": "random", "seed": 1, "variants": [{"regs": [99999999]}]}`,
		`{"samples": 50, "sampler": "random", "seed": 1, "variants": [{"regs": [-1]}]}`,
		`{"samples": 50, "sampler": "random", "seed": 1, "variants": [{"regs": [5]}]}`,
		`{"samples": 50, "variants": [{"regs": [0]}, {"regs": [4]}]}`,
		`{"samples": 50, "variants": [{"regs": [2, 3, 2]}]}`,
	} {
		f.Add([]byte(body), 1<<22, 16)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxSamples, maxVariants int) {
		maxSamples = fuzzCap(maxSamples)
		if maxVariants <= 0 {
			maxVariants = 16 // Config's default
		}
		var req RankRequest
		if decodeRequest(data, &req) != nil || req.normalize(maxSamples, maxVariants, nl) != nil {
			return
		}
		if _, err := montecarlo.ParseMode(req.Mode); err != nil {
			t.Fatalf("accepted rank request %+v: %v", req, err)
		}
		if err := checkSampler(req.Sampler); err != nil {
			t.Fatalf("accepted rank request %+v: %v", req, err)
		}
		if req.Samples < 1 || req.Samples > maxSamples {
			t.Fatalf("accepted rank request with %d samples under cap %d", req.Samples, maxSamples)
		}
		if n := len(req.Variants); n < 1 || n > maxVariants {
			t.Fatalf("accepted rank request with %d variants, cap %d", n, maxVariants)
		}
		names := map[string]bool{}
		for _, v := range req.Variants {
			if v.Name == "" || names[v.Name] {
				t.Fatalf("accepted variant name %q twice or empty", v.Name)
			}
			names[v.Name] = true
			specs := 0
			for _, set := range []bool{len(v.Regs) > 0, v.TopN > 0, v.Share > 0} {
				if set {
					specs++
				}
			}
			if specs != 1 || v.Share < 0 || v.Share > 1 || v.Resilience < 1 || v.AreaFactor < 1 {
				t.Fatalf("accepted variant %+v", v)
			}
			for j, id := range v.Regs {
				if !slices.Contains(nl.Regs(), id) {
					t.Fatalf("accepted variant %+v hardens node %d, which is no register", v, id)
				}
				if slices.Contains(v.Regs[:j], id) {
					t.Fatalf("accepted variant %+v names register %d twice", v, id)
				}
			}
		}
	})
}
