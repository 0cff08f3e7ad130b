package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sampling"
	"repro/internal/stats"
)

var (
	poolOnce sync.Once
	pool     *core.EnginePool
	poolErr  error
)

// enginePool builds one shared two-engine pool for the whole package:
// each engine pays a golden run at construction, and every test server
// serializes pool use through its own worker anyway.
func enginePool(t *testing.T) *core.EnginePool {
	t.Helper()
	poolOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.Precharac.MaxDepth = 51
		opts.Precharac.TraceCycles = 768
		opts.Precharac.LifetimeCap = 120
		opts.Precharac.Probes = 1
		fw, err := core.Build(opts)
		if err != nil {
			poolErr = err
			return
		}
		ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
		if err != nil {
			poolErr = err
			return
		}
		pool, poolErr = ev.NewEnginePool(2)
	})
	if poolErr != nil {
		t.Fatal(poolErr)
	}
	return pool
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := New(enginePool(t), t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestJobRequestNormalize(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
		ok   bool
	}{
		{"neither samples nor epsilon", JobRequest{}, false},
		{"both samples and epsilon", JobRequest{Samples: 10, Epsilon: 0.1}, false},
		{"fixed", JobRequest{Samples: 100}, true},
		{"adaptive", JobRequest{Epsilon: 0.01, Risk: 0.05}, true},
		{"risk out of range", JobRequest{Epsilon: 0.01, Risk: 1}, false},
		{"over budget", JobRequest{Samples: 1 << 30}, false},
		{"unknown sampler", JobRequest{Samples: 10, Sampler: "bogus"}, false},
		{"stratified sampler", JobRequest{Samples: 10, Sampler: "stratified"}, true},
		{"removed sobol sampler", JobRequest{Samples: 10, Sampler: "sobol"}, false},
		{"unknown mode", JobRequest{Samples: 10, Mode: "weird"}, false},
		{"negative check_every", JobRequest{Samples: 10, CheckEvery: -1}, false},
		{"min_samples over cap", JobRequest{Epsilon: 1e-4, MinSamples: 100_000_000}, false},
		{"min_samples over max_samples", JobRequest{Epsilon: 0.01, MinSamples: 5000, MaxSamples: 4000}, false},
		{"explicit bounds", JobRequest{Epsilon: 0.01, MinSamples: 5000, MaxSamples: 5000}, true},
	}
	for _, c := range cases {
		err := c.req.normalize(1 << 22)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}

	r := JobRequest{Samples: 100}
	if err := r.normalize(1 << 22); err != nil {
		t.Fatal(err)
	}
	if r.Sampler != "importance" || r.Mode != "gate" {
		t.Errorf("defaults not applied: %+v", r)
	}
	o := r.adaptiveOptions()
	if o.MinSamples != 100 || o.MaxSamples != 100 || o.Epsilon != 0 || o.Risk != 0 {
		t.Errorf("fixed-size job not pinned, or given a stopping criterion: %+v", o)
	}
	if o.CheckEvery != 500 {
		t.Errorf("CheckEvery default = %d", o.CheckEvery)
	}

	a := JobRequest{Epsilon: 0.01}
	if err := a.normalize(1 << 22); err != nil {
		t.Fatal(err)
	}
	ao := a.adaptiveOptions()
	if ao.Risk != 0.05 || ao.MinSamples != 2000 || ao.MaxSamples != 1<<20 {
		t.Errorf("adaptive defaults: %+v", ao)
	}

	// Under a cap below the defaults, both defaults shrink to the cap.
	c := JobRequest{Epsilon: 0.01}
	if err := c.normalize(1000); err != nil {
		t.Fatal(err)
	}
	if c.MinSamples != 1000 || c.MaxSamples != 1000 {
		t.Errorf("defaults under a 1000-sample cap: min %d max %d", c.MinSamples, c.MaxSamples)
	}
}

func TestRankRequestNormalize(t *testing.T) {
	cases := []struct {
		name string
		req  RankRequest
		ok   bool
	}{
		{"defaults", RankRequest{Samples: 10}, true},
		{"no samples", RankRequest{}, false},
		{"over budget", RankRequest{Samples: 1 << 30}, false},
		{"unknown sampler", RankRequest{Samples: 10, Sampler: "bogus"}, false},
		{"stratified sampler", RankRequest{Samples: 10, Sampler: "stratified"}, true},
		{"removed sobol sampler", RankRequest{Samples: 10, Sampler: "sobol"}, false},
		{"unknown mode", RankRequest{Samples: 10, Mode: "weird"}, false},
		{"registers", RankRequest{Samples: 10, Variants: []RankVariant{{Regs: []netlist.NodeID{1, 3}}}}, true},
		{"node out of range", RankRequest{Samples: 10, Variants: []RankVariant{{Regs: []netlist.NodeID{5}}}}, false},
		{"negative node", RankRequest{Samples: 10, Variants: []RankVariant{{Regs: []netlist.NodeID{-1}}}}, false},
		{"input node", RankRequest{Samples: 10, Variants: []RankVariant{{Regs: []netlist.NodeID{0}}}}, false},
		{"gate node", RankRequest{Samples: 10, Variants: []RankVariant{{Regs: []netlist.NodeID{2, 4}}}}, false},
		{"repeated register", RankRequest{Samples: 10, Variants: []RankVariant{{Regs: []netlist.NodeID{1, 3, 1}}}}, false},
	}
	for _, c := range cases {
		if c.req.Variants == nil {
			c.req.Variants = []RankVariant{{TopN: 3}}
		}
		err := c.req.normalize(1<<22, 16, rankNetlist())
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

// TestRankCellDefaults: each cell parameter of a rank variant defaults
// on its own (resilience 10, area factor 3), and an explicit value
// below 1 is a client error, for the area factor as for the resilience.
func TestRankCellDefaults(t *testing.T) {
	cases := []struct {
		name             string
		v                RankVariant
		ok               bool
		resilience, area float64
	}{
		{"both absent", RankVariant{TopN: 3}, true, 10, 3},
		{"resilience only", RankVariant{TopN: 3, Resilience: 10}, true, 10, 3},
		{"area factor only", RankVariant{TopN: 3, AreaFactor: 3}, true, 10, 3},
		{"both explicit", RankVariant{TopN: 3, Resilience: 5, AreaFactor: 2}, true, 5, 2},
		{"area factor below 1", RankVariant{TopN: 3, AreaFactor: 0.5}, false, 0, 0},
		{"negative area factor", RankVariant{TopN: 3, Resilience: 10, AreaFactor: -2}, false, 0, 0},
		{"resilience below 1", RankVariant{TopN: 3, Resilience: 0.5}, false, 0, 0},
	}
	for _, c := range cases {
		req := RankRequest{Samples: 10, Variants: []RankVariant{c.v}}
		err := req.normalize(1<<22, 16, rankNetlist())
		if (err == nil) != c.ok {
			t.Errorf("%s: normalize error %v, want ok %v", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if v := req.Variants[0]; v.Resilience != c.resilience || v.AreaFactor != c.area {
			t.Errorf("%s: resilience %v, area factor %v; want %v, %v", c.name, v.Resilience, v.AreaFactor, c.resilience, c.area)
		}
	}
}

// TestRankStratifiedHTTP: a rank request may name any sampler a job
// may, the stratified one included.
func TestRankStratifiedHTTP(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(
		`{"samples": 200, "sampler": "stratified", "seed": 1, "variants": [{"name": "top2", "top_n": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stratified rank: %d, want 200", r.StatusCode)
	}
	var resp RankResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sampler != "stratified" || len(resp.Entries) != 1 {
		t.Fatalf("rank response %+v", resp)
	}
}

// TestRankRejectsNonRegisterHTTP: a rank variant may harden only
// registers of the served MPU. A node ID out of range, a negative one,
// or one that names a gate is a client error (400), not a handler
// panic or a gate's area counted as register area; a register ID is
// accepted.
func TestRankRejectsNonRegisterHTTP(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nl := srv.pool.Evaluation.Framework.MPU.Netlist
	if nl.Node(5).Type == netlist.DFF {
		t.Fatal("node 5 of the MPU is a register; pick another non-register")
	}
	post := func(regs string) int {
		t.Helper()
		r, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(
			`{"samples":50,"sampler":"random","seed":1,"variants":[{"regs":`+regs+`}]}`))
		if err != nil {
			t.Fatalf("regs %s: %v", regs, err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	for _, regs := range []string{"[99999999]", "[-1]", "[5]"} {
		if code := post(regs); code != http.StatusBadRequest {
			t.Errorf("regs %s: %d, want 400", regs, code)
		}
	}
	if code := post(fmt.Sprintf("[%d]", nl.Regs()[0])); code != http.StatusOK {
		t.Errorf("regs [%d] (a register): %d, want 200", nl.Regs()[0], code)
	}
}

// TestSampleBoundsAgainstCapHTTP: min_samples cannot lift a job past
// the server's sample cap, and a server capped below the adaptive
// defaults still accepts an adaptive job that asks for no bounds.
func TestSampleBoundsAgainstCapHTTP(t *testing.T) {
	submit := func(cfg Config, body string) *http.Response {
		t.Helper()
		ts := httptest.NewServer(newTestServer(t, cfg).Handler())
		defer ts.Close()
		r, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := submit(Config{}, `{"epsilon": 1e-4, "min_samples": 100000000}`)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("min_samples 1e8 on a 1<<22 cap: %d, want 400", r.StatusCode)
	}

	r = submit(Config{MaxSamples: 1000}, `{"epsilon": 0.01}`)
	defer r.Body.Close()
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("default adaptive job on a 1000-sample cap: %d, want 202", r.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Request.MinSamples != 1000 || st.Request.MaxSamples != 1000 {
		t.Errorf("accepted bounds min %d max %d, want 1000/1000",
			st.Request.MinSamples, st.Request.MaxSamples)
	}
}

func TestLimiterPool(t *testing.T) {
	l := newLimiterPool(2, 2)
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", t0); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := l.allow("a", t0)
	if ok {
		t.Fatal("request beyond burst accepted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry-after %v, want (0, 1s]", retry)
	}
	// Another tenant has its own bucket.
	if ok, _ := l.allow("b", t0); !ok {
		t.Fatal("tenant b should have a fresh bucket")
	}
	// After a second at 2 tokens/s the bucket refills.
	if ok, _ := l.allow("a", t0.Add(time.Second)); !ok {
		t.Fatal("bucket did not refill")
	}
	// Disabled limiter admits everything.
	free := newLimiterPool(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := free.allow("a", t0); !ok {
			t.Fatal("disabled limiter rejected a request")
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	recA := jobRecord{
		ID: "aaa", Tenant: "t1", State: StateQueued,
		Request:     JobRequest{Samples: 500, Sampler: "random", Mode: "gate", Seed: 7},
		SubmittedAt: base.Add(time.Minute),
		Rounds:      2,
		Checkpoint: &montecarlo.CampaignSnapshot{
			SamplerName: "random", Mode: montecarlo.GateAttack,
			Est: stats.WelfordState{N: 400, Mean: 0.125, M2: 43.75},
		},
	}
	recB := jobRecord{
		ID: "bbb", State: StateDone, SubmittedAt: base,
		Request: JobRequest{Samples: 100},
		Result:  &JobResult{SSF: 0.25, Samples: 100},
	}
	for _, rec := range []jobRecord{recA, recB} {
		if err := st.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt file is reported and skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "job-ccc.json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, errs := st.Load()
	if len(errs) != 1 {
		t.Fatalf("want 1 recovery error, got %v", errs)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %d", len(recs))
	}
	// Sorted by submission time: bbb (earlier) first.
	if recs[0].ID != "bbb" || recs[1].ID != "aaa" {
		t.Fatalf("order %s, %s", recs[0].ID, recs[1].ID)
	}
	got := recs[1]
	if got.Checkpoint == nil || got.Checkpoint.Est != recA.Checkpoint.Est {
		t.Fatalf("checkpoint state changed: %+v", got.Checkpoint)
	}
	if got.Rounds != 2 || got.Request != recA.Request || got.Tenant != "t1" {
		t.Fatalf("record changed: %+v", got)
	}
	// Overwrite is atomic and last-write-wins.
	recA.State = StateDone
	if err := st.Save(recA); err != nil {
		t.Fatal(err)
	}
	recs, _ = st.Load()
	if recs[1].State != StateDone {
		t.Fatal("overwrite not visible")
	}
}

// waitTerminal polls a job until it leaves the queued and running
// states.
func waitTerminal(t *testing.T, j *Job) string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		switch st := j.state(); st {
		case StateQueued, StateRunning:
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.snapshotRecord().ID, st)
			}
			time.Sleep(10 * time.Millisecond)
		default:
			return st
		}
	}
}

// TestStoredRemovedSamplerFailsCleanly: a queued job persisted with a
// sampler this server no longer builds fails with an error naming the
// sampler, and the job queued behind it still runs.
func TestStoredRemovedSamplerFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, rec := range []jobRecord{
		{ID: "old", State: StateQueued, SubmittedAt: base,
			Request: JobRequest{Samples: 200, Sampler: "sobol", Mode: "gate", Seed: 1}},
		{ID: "next", State: StateQueued, SubmittedAt: base.Add(time.Minute),
			Request: JobRequest{Samples: 200, Sampler: "random", Mode: "gate", Seed: 2}},
	} {
		if err := st.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(enginePool(t), dir, Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()
	old, ok := srv.job("old")
	if !ok {
		t.Fatal("stored job not loaded")
	}
	if st := waitTerminal(t, old); st != StateFailed {
		t.Fatalf("removed-sampler job ended %s, want failed", st)
	}
	if e := old.snapshotRecord().Error; !strings.Contains(e, `"sobol"`) {
		t.Errorf("error %q does not name the sampler", e)
	}
	next, ok := srv.job("next")
	if !ok {
		t.Fatal("stored job not loaded")
	}
	if st := waitTerminal(t, next); st != StateDone {
		t.Fatalf("job behind the failed one ended %s (%s), want done", st, next.snapshotRecord().Error)
	}
}

// TestInvalidCheckpointLoadsAsFailed: a persisted job whose checkpoint
// fails validation stays visible after a restart, as a failed job
// carrying the reason, and is not queued.
func TestInvalidCheckpointLoadsAsFailed(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(jobRecord{
		ID: "bad", State: StateRunning, SubmittedAt: time.Now().UTC(),
		Request: JobRequest{Samples: 200, Sampler: "random", Mode: "gate", Seed: 1},
		Rounds:  1,
		Checkpoint: &montecarlo.CampaignSnapshot{
			SamplerName: "random", Mode: montecarlo.GateAttack,
			Est: stats.WelfordState{N: -1},
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(enginePool(t), dir, Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(srv.queue); n != 0 {
		t.Fatalf("%d jobs queued, want 0", n)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	r, err := http.Get(ts.URL + "/v1/jobs/bad")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status of the invalid job: %d, want 200", r.StatusCode)
	}
	var got JobStatus
	if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "negative sample count -1") {
		t.Fatalf("invalid job listed as %s with error %q", got.State, got.Error)
	}
	j, _ := srv.job("bad")
	if j.snapshotRecord().Checkpoint != nil {
		t.Error("invalid checkpoint kept")
	}
}

// TestUnknownSamplerRejectedHTTP: a syntactically valid submission
// naming a sampler the server does not implement is a client error —
// clean 400 before any work is queued.
func TestUnknownSamplerRejectedHTTP(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"samples": 100, "sampler": "sobolev"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown sampler submit: %d, want 400", r.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "sampler") {
		t.Errorf("error %q does not name the sampler field", e.Error)
	}
}

// TestHugeCheckEveryRunsHTTP: a check_every whose round overflows on
// the two-engine pool is accepted and runs to its sample count.
func TestHugeCheckEveryRunsHTTP(t *testing.T) {
	srv := newTestServer(t, Config{})
	srv.Start()
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"samples": 100, "check_every": 4611686018427387904, "sampler": "random"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", r.StatusCode, st)
	}
	j, ok := srv.job(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	if state := waitTerminal(t, j); state != StateDone {
		t.Fatalf("job ended %s: %s", state, j.status().Error)
	}
	if res := j.status().Result; res == nil || res.Samples != 100 {
		t.Fatalf("result %+v, want 100 samples", res)
	}
}

func TestQueueBackpressure(t *testing.T) {
	// QueueDepth 1 and no Start: the first submission parks in the
	// queue, the second must be rejected with 429 + Retry-After.
	srv := newTestServer(t, Config{QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"samples": 100, "sampler": "random"}`
	r1, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestRateLimitHTTP(t *testing.T) {
	srv := newTestServer(t, Config{RatePerSec: 0.1, Burst: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Burst of 1: the first request consumes the token (an invalid body
	// still counts — the limiter runs first), the second is limited.
	r1, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusBadRequest {
		t.Fatalf("first request: %d, want 400", r1.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A different tenant is unaffected.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader("{}"))
	req.Header.Set("X-Tenant", "other")
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("other tenant: %d, want 400", r3.StatusCode)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes an event stream until it closes.
func readSSE(t *testing.T, body *bufio.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
}

func TestJobLifecycleAndSSE(t *testing.T) {
	srv := newTestServer(t, Config{})
	srv.Start()
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Samples: 600, CheckEvery: 100, Sampler: "random", Seed: 5}
	buf, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	evReq, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	evResp, err := http.DefaultClient.Do(evReq)
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	events := readSSE(t, bufio.NewReader(evResp.Body))
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	progress := 0
	for _, e := range events[:len(events)-1] {
		if e.name != "progress" {
			t.Fatalf("unexpected mid-stream event %q", e.name)
		}
		// A fixed-size job's progress names its sample count as total.
		var p ProgressEvent
		if err := json.Unmarshal([]byte(e.data), &p); err != nil || p.Total != 600 {
			t.Errorf("progress event %s: total %d, want 600 (err %v)", e.data, p.Total, err)
		}
		progress++
	}
	if progress == 0 {
		t.Error("no progress events before the terminal event")
	}
	final := events[len(events)-1]
	if final.name != StateDone {
		t.Fatalf("terminal event %q, want done", final.name)
	}
	var finalStatus JobStatus
	if err := json.Unmarshal([]byte(final.data), &finalStatus); err != nil {
		t.Fatal(err)
	}
	if finalStatus.Result == nil || finalStatus.Result.Samples != 600 {
		t.Fatalf("terminal event result: %+v", finalStatus.Result)
	}

	// GET status agrees with the stream, and the result matches a direct
	// run of the identical options on the same pool exactly.
	gr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(gr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("status after done: %+v", got)
	}
	norm := req
	if err := norm.normalize(srv.cfg.MaxSamples); err != nil {
		t.Fatal(err)
	}
	srv.poolMu.Lock()
	ref, err := montecarlo.RunAdaptiveParallel(context.Background(),
		srv.pool.Engines, srv.pool.Evaluation.RandomSampler(), norm.adaptiveOptions())
	srv.poolMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.SSF != ref.SSF() || got.Result.Samples != ref.Est.N() ||
		got.Result.Successes != ref.Successes {
		t.Fatalf("server result %+v, direct run SSF %v N %d", got.Result, ref.SSF(), ref.Est.N())
	}

	// A late subscriber to a finished job gets the terminal event
	// immediately.
	lateResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late := readSSE(t, bufio.NewReader(lateResp.Body))
	lateResp.Body.Close()
	if len(late) == 0 || late[len(late)-1].name != StateDone {
		t.Fatalf("late subscriber events: %+v", late)
	}
}

func TestRestartResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	p := enginePool(t)
	srv, err := New(p, dir, Config{CheckpointEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	req := JobRequest{Samples: 6000, CheckEvery: 60, Sampler: "random", Seed: 11}
	if err := req.normalize(srv.cfg.MaxSamples); err != nil {
		t.Fatal(err)
	}
	j, _, err := srv.submit("default", req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until at least two rounds are checkpointed, then pull the
	// plug mid-job.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint progress; job state %s", j.state())
		}
		if j.status().Rounds >= 2 {
			break
		}
		if st := j.state(); st == StateDone || st == StateFailed {
			t.Fatalf("job reached %s before the shutdown; raise Samples", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Shutdown()
	if st := j.state(); st != StateQueued {
		t.Fatalf("after shutdown job is %s, want queued for resume", st)
	}

	// A fresh server over the same store, with one worker instead of
	// two, must pick the job up from its checkpoint and finish
	// bit-identical to an uninterrupted run.
	one := &core.EnginePool{Evaluation: p.Evaluation, Engines: p.Engines[:1]}
	srv2, err := New(one, dir, Config{CheckpointEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := srv2.job(j.snapshotRecord().ID)
	if !ok {
		t.Fatal("restarted server lost the job")
	}
	if j2.state() != StateQueued {
		t.Fatalf("restarted job state %s", j2.state())
	}
	if j2.snapshotRecord().Checkpoint == nil {
		t.Fatal("restarted job lost its checkpoint")
	}
	srv2.Start()
	defer srv2.Shutdown()
	deadline = time.Now().Add(120 * time.Second)
	for j2.state() != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %s", j2.state())
		}
		if j2.state() == StateFailed {
			t.Fatalf("resumed job failed: %s", j2.snapshotRecord().Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := j2.snapshotRecord().Result

	ref, err := montecarlo.RunAdaptiveParallel(context.Background(),
		p.Engines, p.Evaluation.RandomSampler(), req.adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.SSF != ref.SSF() || got.Samples != ref.Est.N() ||
		got.Successes != ref.Successes || got.Variance != ref.Variance() {
		t.Fatalf("resumed result %+v; uninterrupted SSF %v N %d successes %d",
			got, ref.SSF(), ref.Est.N(), ref.Successes)
	}
	if got.ClassCounts != ref.ClassCounts || got.PathCounts != ref.PathCounts {
		t.Error("resumed histograms differ from the uninterrupted run")
	}
}

// TestStoredBatchRecordResumes: servers that still had a batch switch
// stored "batch" in a job's request and "batch" and "batch_window" in
// its checkpoint. Such a record must load through the store with a
// checkpoint that validates, and the job must resume bit-identical to
// the uninterrupted run.
func TestStoredBatchRecordResumes(t *testing.T) {
	p := enginePool(t)
	req := JobRequest{Samples: 3000, CheckEvery: 250, Sampler: "random", Seed: 17}
	if err := req.normalize(1 << 22); err != nil {
		t.Fatal(err)
	}
	ref, err := montecarlo.RunAdaptiveParallel(context.Background(),
		p.Engines, p.Evaluation.RandomSampler(), req.adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint the same run after two rounds, then stop it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cp *montecarlo.CampaignSnapshot
	aopts := req.adaptiveOptions()
	aopts.Checkpoint = func(rounds int64, total *montecarlo.Campaign) {
		if rounds == 2 {
			cp = total.Snapshot()
			cancel()
		}
	}
	if _, err := montecarlo.RunAdaptiveParallel(ctx, p.Engines, p.Evaluation.RandomSampler(), aopts); err == nil {
		t.Fatal("interrupted run finished")
	}
	if cp == nil {
		t.Fatal("no checkpoint after two rounds")
	}

	// The record as such a server wrote it.
	withKeys := func(obj any, keys string) json.RawMessage {
		t.Helper()
		data, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		return json.RawMessage(`{` + keys + `,` + string(data[1:]))
	}
	data, err := json.Marshal(map[string]any{
		"id":           "stored",
		"tenant":       "default",
		"state":        StateRunning,
		"submitted_at": time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		"rounds":       2,
		"request":      withKeys(req, `"batch": true`),
		"checkpoint":   withKeys(cp, `"batch": true, "batch_window": 700`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"batch_window":700`)) || bytes.Count(data, []byte(`"batch":true`)) != 2 {
		t.Fatalf("record lacks the stored batch keys: %s", data)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-stored.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, errs := st.Load()
	if len(errs) != 0 || len(recs) != 1 {
		t.Fatalf("store loaded %d records, errors %v", len(recs), errs)
	}
	if recs[0].State != StateRunning || recs[0].Checkpoint == nil {
		t.Fatalf("stored record loaded as %s, checkpoint %v (%s)", recs[0].State, recs[0].Checkpoint, recs[0].Error)
	}
	if err := recs[0].Checkpoint.Validate(); err != nil {
		t.Fatal(err)
	}

	srv, err := New(p, dir, Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := srv.job("stored")
	if !ok || j.state() != StateQueued || j.snapshotRecord().Checkpoint == nil {
		t.Fatal("stored job not queued for resume from its checkpoint")
	}
	srv.Start()
	defer srv.Shutdown()
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("stored job ended %s (%s), want done", st, j.snapshotRecord().Error)
	}
	got := j.snapshotRecord().Result
	if got == nil || got.SSF != ref.SSF() || got.Samples != ref.Est.N() || got.Successes != ref.Successes ||
		got.Variance != ref.Variance() || got.RTLCycles != ref.RTLCycles ||
		got.ClassCounts != ref.ClassCounts || got.PathCounts != ref.PathCounts {
		t.Fatalf("resumed result %+v; uninterrupted SSF %v N %d successes %d RTL cycles %d",
			got, ref.SSF(), ref.Est.N(), ref.Successes, ref.RTLCycles)
	}
}

// TestStratifiedRestartResumeBitIdentical: a stratified job carries
// per-stratum Welford state through the server's checkpoint files; a
// kill + restart mid-job must still finish bit-identical to an
// uninterrupted run, and the result must report the variance-reduction
// diagnostics (CI half-width, ESS).
func TestStratifiedRestartResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	p := enginePool(t)
	srv, err := New(p, dir, Config{CheckpointEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	req := JobRequest{Samples: 6000, CheckEvery: 60, Sampler: "stratified", Seed: 13}
	if err := req.normalize(srv.cfg.MaxSamples); err != nil {
		t.Fatal(err)
	}
	j, _, err := srv.submit("default", req)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint progress; job state %s", j.state())
		}
		if j.status().Rounds >= 2 {
			break
		}
		if st := j.state(); st == StateDone || st == StateFailed {
			t.Fatalf("job reached %s before the shutdown; raise Samples", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Shutdown()
	if st := j.state(); st != StateQueued {
		t.Fatalf("after shutdown job is %s, want queued for resume", st)
	}
	// The persisted checkpoint must round-trip the per-stratum state.
	if cp := j.snapshotRecord().Checkpoint; cp == nil || cp.Strata == nil {
		t.Fatalf("stratified checkpoint lost its strata: %+v", cp)
	}

	srv2, err := New(p, dir, Config{CheckpointEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := srv2.job(j.snapshotRecord().ID)
	if !ok {
		t.Fatal("restarted server lost the job")
	}
	srv2.Start()
	defer srv2.Shutdown()
	deadline = time.Now().Add(120 * time.Second)
	for j2.state() != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %s", j2.state())
		}
		if j2.state() == StateFailed {
			t.Fatalf("resumed job failed: %s", j2.snapshotRecord().Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := j2.snapshotRecord().Result

	sp, err := p.Evaluation.StratifiedSampler()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := montecarlo.RunAdaptiveParallel(context.Background(),
		p.Engines, sp, req.adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.SSF != ref.SSF() || got.Samples != ref.Est.N() ||
		got.Successes != ref.Successes || got.Variance != ref.Variance() {
		t.Fatalf("resumed result %+v; uninterrupted SSF %v N %d successes %d",
			got, ref.SSF(), ref.Est.N(), ref.Successes)
	}
	if got.CIHalfWidth != ref.CIHalfWidth() {
		t.Errorf("resumed CI half-width %v, uninterrupted %v", got.CIHalfWidth, ref.CIHalfWidth())
	}
	if got.ESS != ref.ESS() {
		t.Errorf("resumed ESS %v, uninterrupted %v", got.ESS, ref.ESS())
	}
}

// TestRankDeterministic: a rank request's campaigns run in blocks of
// montecarlo.FixedSizeBlock, so a one-engine server returns the
// leaderboard of the two-engine one.
func TestRankDeterministic(t *testing.T) {
	srv := newTestServer(t, Config{})
	p := srv.pool
	one, err := New(&core.EnginePool{Evaluation: p.Evaluation, Engines: p.Engines[:1]}, t.TempDir(), Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	req := RankRequest{
		Samples: 2*montecarlo.FixedSizeBlock + 500,
		Sampler: "importance",
		Seed:    3,
		Variants: []RankVariant{
			{Name: "top3", TopN: 3},
			{Name: "top8", TopN: 8},
			{Name: "share60", Share: 0.6},
		},
	}
	if err := req.normalize(srv.cfg.MaxSamples, srv.cfg.MaxVariants, srv.pool.Evaluation.Framework.MPU.Netlist); err != nil {
		t.Fatal(err)
	}
	first, err := srv.rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := one.rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("rank differs between 2 engines and 1:\n%+v\n%+v", first, second)
	}
	if len(first.Entries) != 3 {
		t.Fatalf("leaderboard has %d entries", len(first.Entries))
	}
	for i, e := range first.Entries {
		if e.Rank != i+1 {
			t.Fatalf("entry %d has rank %d", i, e.Rank)
		}
		if i > 0 && e.SSF < first.Entries[i-1].SSF {
			t.Fatal("leaderboard not sorted by hardened SSF")
		}
		if e.NumRegs == 0 || e.AreaOverhead <= 0 {
			t.Errorf("entry %q missing hardening accounting: %+v", e.Name, e)
		}
	}
	// Hardening more registers costs more area.
	byName := map[string]RankEntry{}
	for _, e := range first.Entries {
		byName[e.Name] = e
	}
	if byName["top8"].AreaOverhead <= byName["top3"].AreaOverhead {
		t.Errorf("top8 overhead %v not above top3 %v",
			byName["top8"].AreaOverhead, byName["top3"].AreaOverhead)
	}
}

// TestRankZeroHitBound: a hardened campaign without a success reports
// the sound 95% lower bound on the improvement, base_ssf / (w_max·(1 −
// 0.05^(1/n))) with w_max = 1/MixUniform for the importance sampler. At
// 500 samples that bound is far below 1, so the entry is unresolved
// (no_success with an improvement below 1), not the 0.36 that
// base_ssf × samples read as.
func TestRankZeroHitBound(t *testing.T) {
	srv := newTestServer(t, Config{})
	var req RankRequest
	if err := json.Unmarshal([]byte(`{"samples": 500, "variants": [{"top_n": 3, "resilience": 10}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.normalize(srv.cfg.MaxSamples, srv.cfg.MaxVariants, srv.pool.Evaluation.Framework.MPU.Netlist); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	e := resp.Entries[0]
	if !e.NoSuccess || e.SSF != 0 || resp.BaseSSF == 0 {
		t.Fatalf("want a zero-hit hardened campaign against a base with hits: base %v, entry %+v", resp.BaseSSF, e)
	}
	want := resp.BaseSSF / ((1 / sampling.DefaultMixUniform) * (1 - math.Pow(0.05, 1.0/500)))
	if math.Abs(e.Improvement-want) > 1e-12*want {
		t.Errorf("improvement %v, want base/ub = %v", e.Improvement, want)
	}
	if e.Improvement >= 1 || e.Improvement > resp.BaseSSF*500/10 {
		t.Errorf("improvement %v at base %v: not the unresolved bound", e.Improvement, resp.BaseSSF)
	}
}

// TestRankZeroHitBase: when neither the base nor the hardened campaign
// sees a success, both SSFs are unresolved, so the entry reports
// no_success with an improvement below 1, not an improvement of 1
// ("hardening changed nothing"). On a 3-engine pool over the default
// framework, 500 random draws hit nothing.
func TestRankZeroHitBase(t *testing.T) {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ev.NewEnginePool(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, t.TempDir(), Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var req RankRequest
	if err := json.Unmarshal([]byte(`{"samples": 500, "sampler": "random", "variants": [{"top_n": 3, "resilience": 10}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.normalize(srv.cfg.MaxSamples, srv.cfg.MaxVariants, fw.MPU.Netlist); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	e := resp.Entries[0]
	if resp.BaseSSF != 0 || e.SSF != 0 {
		t.Fatalf("want zero-hit base and hardened campaigns: base %v, entry %+v", resp.BaseSSF, e)
	}
	if !e.NoSuccess || e.Improvement >= 1 {
		t.Errorf("entry %+v: want no_success with an improvement below 1", e)
	}
	body, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"no_success":true`) {
		t.Errorf("rank entry JSON %s lacks \"no_success\":true", body)
	}
}

func TestWriteJSONMarshalFailure(t *testing.T) {
	// A value json cannot encode (NaN) must produce a clean 500, not a
	// truncated body under a success status line.
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"ssf": math.NaN()})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, w.Body.String())
	}
	if body["error"] == "" {
		t.Fatalf("error body %q carries no error field", w.Body.String())
	}

	// And the healthy path still round-trips with the requested status.
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusAccepted, map[string]int{"n": 7})
	if w.Code != http.StatusAccepted || !strings.Contains(w.Body.String(), `"n": 7`) {
		t.Fatalf("healthy writeJSON: status %d body %q", w.Code, w.Body.String())
	}
}

func TestStartShutdownRestart(t *testing.T) {
	// Start/Shutdown/Start cycles under concurrent API traffic: the
	// worker goroutine receives its context as a parameter, so an old
	// worker never races the runCtx reassignment of a later Start. Run
	// with -race to get the full value of this test.
	srv := newTestServer(t, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := srv.Handler()
		for {
			select {
			case <-stop:
				return
			default:
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/jobs", nil))
			}
		}
	}()
	for i := 0; i < 5; i++ {
		srv.Start()
		srv.Start() // idempotent
		srv.Shutdown()
	}
	close(stop)
	wg.Wait()

	// After the final restart the worker must still drain the queue.
	srv.Start()
	defer srv.Shutdown()
	req := JobRequest{Samples: 200, Sampler: "random", Seed: 7}
	if err := req.normalize(srv.cfg.MaxSamples); err != nil {
		t.Fatal(err)
	}
	j, _, err := srv.submit("default", req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for j.state() != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after restart cycles", j.state())
		}
		if j.state() == StateFailed {
			t.Fatalf("job failed: %s", j.snapshotRecord().Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
