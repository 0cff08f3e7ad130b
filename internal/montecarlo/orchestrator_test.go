package montecarlo_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// cancelAfter returns a context plus a progress callback that cancels
// it once the campaign passes n samples. Progress callbacks are
// serialized, so this is race-free even across shards.
func cancelAfter(n int) (context.Context, montecarlo.ProgressFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(p montecarlo.Progress) {
		if p.Done >= n {
			cancel()
		}
	}
}

func TestCampaignCancellationReturnsPartial(t *testing.T) {
	ev := evaluation(t)
	ctx, prog := cancelAfter(200)
	opts := montecarlo.CampaignOptions{
		Samples: 1 << 20, Seed: 1,
		Progress: prog,
	}
	c, err := ev.Engine.RunCampaign(ctx, ev.RandomSampler(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c == nil {
		t.Fatal("no partial campaign returned")
	}
	if n := c.Est.N(); n < 200 || n >= opts.Samples {
		t.Errorf("partial campaign has %d samples", n)
	}
	if c.Options.Samples != c.Est.N() {
		t.Errorf("Options.Samples %d != evaluated %d", c.Options.Samples, c.Est.N())
	}
}

func TestParallelCancellationMergesPartialsNoLeak(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, prog := cancelAfter(300)
	opts := fixedSize(1<<20, 7)
	totals := map[int]bool{}
	opts.Progress = func(p montecarlo.Progress) { totals[p.Total] = true; prog(p) } // callbacks are serialized
	c, err := montecarlo.RunAdaptiveParallel(ctx, engines, ev.RandomSampler(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c == nil || c.Est.N() < 300 || c.Est.N() >= opts.MaxSamples {
		t.Fatalf("partial merge wrong: %+v", c)
	}
	if len(totals) != 1 || !totals[opts.MaxSamples] {
		t.Errorf("fixed-size progress reported Total %v, want %d", totals, opts.MaxSamples)
	}
	// All shard goroutines must have exited (the round loop joins them
	// before returning); allow the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestParallelShardPanicIsolated(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(2)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage shard 1 so its first run panics; the orchestrator must
	// convert that into an indexed error instead of crashing.
	engines[1].SoC = nil
	opts := fixedSize(100, 1)
	opts.CheckEvery = 50 // two blocks: the round runs one on each engine
	_, err = montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err == nil {
		t.Fatal("panicking shard produced no error")
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "panic") {
		t.Errorf("error not indexed to the panicking shard: %v", err)
	}
}

func TestRunAdaptiveTracksConvergence(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.DefaultAdaptive(0.01)
	opts.MinSamples = 500
	opts.CheckEvery = 200
	opts.MaxSamples = 5000
	opts.TrackConvergence = true
	c, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// One entry per block: the total after each committed block.
	blocks := (c.Est.N() + opts.CheckEvery - 1) / opts.CheckEvery
	if len(c.Convergence) != blocks {
		t.Fatalf("trace length %d, campaign ran %d blocks (%d samples)", len(c.Convergence), blocks, c.Est.N())
	}
	if last := c.Convergence[len(c.Convergence)-1]; last != c.SSF() {
		t.Errorf("trace ends at %v, SSF is %v", last, c.SSF())
	}
	for i, v := range c.Convergence {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("trace entry %d is %v", i, v)
		}
	}
}

// TestRunAdaptiveParallelStopsNearSequential: blocks commit in index
// order and the bound is checked after each, so three engines stop at
// the same block as one and give the same answer, even when the
// stopping block is not the last of its round.
func TestRunAdaptiveParallelStopsNearSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.DefaultAdaptive(0.01)
	opts.MinSamples = 600
	opts.CheckEvery = 150
	opts.MaxSamples = 30000
	seq, err := runAdaptive(context.Background(), ev, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Est.N() < opts.MinSamples || par.Est.N() >= opts.MaxSamples {
		t.Fatalf("parallel adaptive ran %d samples", par.Est.N())
	}
	if par.Est.LLNBound(opts.Epsilon) > opts.Risk {
		t.Errorf("stopped with bound %v > risk %v", par.Est.LLNBound(opts.Epsilon), opts.Risk)
	}
	if par.Est.N() != seq.Est.N() || par.Est.State() != seq.Est.State() || par.Successes != seq.Successes {
		t.Errorf("3 engines stopped at %d samples (SSF %v), 1 engine at %d (SSF %v)",
			par.Est.N(), par.SSF(), seq.Est.N(), seq.SSF())
	}
}

func TestRunAdaptiveParallelDeterministic(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.DefaultAdaptive(0.02)
	opts.MinSamples = 300
	opts.CheckEvery = 100
	opts.MaxSamples = 5000
	a, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.SSF() != b.SSF() || a.Est.N() != b.Est.N() || a.Successes != b.Successes {
		t.Errorf("parallel adaptive not reproducible: %v/%d/%d vs %v/%d/%d",
			a.SSF(), a.Est.N(), a.Successes, b.SSF(), b.Est.N(), b.Successes)
	}
}

// TestRunAdaptiveParallelHugeCheckEvery: a CheckEvery whose block
// offsets k·CheckEvery overflow int runs one block of the remaining
// samples, bit-identical to a CheckEvery of exactly MaxSamples.
func TestRunAdaptiveParallelHugeCheckEvery(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(checkEvery int) *montecarlo.Campaign {
		t.Helper()
		opts := montecarlo.DefaultAdaptive(0.02)
		opts.MinSamples, opts.MaxSamples = 100, 100
		opts.CheckEvery = checkEvery
		opts.Seed = 9
		c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
		if err != nil {
			t.Fatalf("CheckEvery %d: %v", checkEvery, err)
		}
		return c
	}
	want := run(100)
	got := run(1 << 62)
	if got.Est.N() != 100 {
		t.Fatalf("ran %d samples, want 100", got.Est.N())
	}
	compareCampaigns(t, "CheckEvery 1<<62 vs 100", got, want)
}

func TestRunAdaptiveParallelTracksRoundTrace(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.DefaultAdaptive(0.02)
	opts.MinSamples = 300
	opts.CheckEvery = 100
	opts.MaxSamples = 2000
	opts.TrackConvergence = true
	c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	blocks := (c.Est.N() + opts.CheckEvery - 1) / opts.CheckEvery
	if len(c.Convergence) != blocks {
		t.Errorf("trace has %d entries, ran %d blocks", len(c.Convergence), blocks)
	}
	if last := c.Convergence[len(c.Convergence)-1]; math.Abs(last-c.SSF()) > 1e-12 {
		t.Errorf("trace ends at %v, SSF is %v", last, c.SSF())
	}
}

// checkProgress requires the snapshots to count up and the last one to
// be the returned answer: its sample count, its path mix and the bits
// of its SSF, CI half-width and ESS.
func checkProgress(t *testing.T, label string, snaps []montecarlo.Progress, c *montecarlo.Campaign) {
	t.Helper()
	if len(snaps) == 0 {
		t.Fatalf("%s: no progress snapshots", label)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Done < snaps[i-1].Done {
			t.Errorf("%s: Done went backwards: %d after %d", label, snaps[i].Done, snaps[i-1].Done)
		}
	}
	p := snaps[len(snaps)-1]
	bits := math.Float64bits
	if p.Done != c.Est.N() || p.PathCounts != c.PathCounts ||
		bits(p.SSF) != bits(c.SSF()) || bits(p.CIHalfWidth) != bits(c.CIHalfWidth()) || bits(p.ESS) != bits(c.ESS()) {
		t.Errorf("%s: final progress %d samples, paths %v, SSF %v ± %v, ESS %v; answer %d, %v, %v ± %v, %v",
			label, p.Done, p.PathCounts, p.SSF, p.CIHalfWidth, p.ESS,
			c.Est.N(), c.PathCounts, c.SSF(), c.CIHalfWidth(), c.ESS())
	}
}

// TestProgressReporting: RunCampaign reports the committed total once
// per window.
func TestProgressReporting(t *testing.T) {
	ev := evaluation(t)
	var snaps []montecarlo.Progress
	opts := montecarlo.CampaignOptions{
		Samples: 5000, Seed: 1,
		Progress: func(p montecarlo.Progress) { snaps = append(snaps, p) },
	}
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	window := montecarlo.FixedSizeBlock
	want := []int{window, 2 * window, 5000}
	if len(snaps) != len(want) {
		t.Fatalf("%d progress snapshots, want one per window (%v)", len(snaps), want)
	}
	for i, p := range snaps {
		paths := 0
		for _, n := range p.PathCounts {
			paths += n
		}
		if p.Done != want[i] || p.Total != opts.Samples || paths != p.Done {
			t.Errorf("snapshot %d: Done %d, Total %d, path mix sums to %d; want Done %d of %d",
				i, p.Done, p.Total, paths, want[i], opts.Samples)
		}
	}
	checkProgress(t, "campaign", snaps, c)
}

func TestParallelProgressAggregates(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	var final montecarlo.Progress
	totals := map[int]bool{}
	opts := fixedSize(900, 3)
	opts.Progress = func(p montecarlo.Progress) { final = p; totals[p.Total] = true } // callbacks are serialized
	c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if final.Done != 900 {
		t.Errorf("final aggregate Done = %d", final.Done)
	}
	if len(totals) != 1 || !totals[900] {
		t.Errorf("fixed-size progress reported Total %v, want 900", totals)
	}
	if final.SSF != c.SSF() {
		t.Errorf("aggregate SSF %v, merged campaign %v", final.SSF, c.SSF())
	}
}

// TestFinalProgressIsTheAnswer: on 1, 2 and 3 engines the last
// snapshot of an answer is the answer, also when it stops on the first
// block of a round (the register answer on 2 engines) and when SSF
// reads the stratified estimate.
func TestFinalProgressIsTheAnswer(t *testing.T) {
	ev := evaluation(t)
	stratified, err := ev.Sampler("stratified", sampling.DefaultAlpha, sampling.DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	// perfbench's register_random rule at seed 2001.
	register := montecarlo.AdaptiveOptions{
		Mode: montecarlo.RegisterAttack, Seed: 2001, Epsilon: 2e-3, Risk: 1 / (stats.Z95 * stats.Z95),
		MinSamples: 10000, MaxSamples: 1 << 20, CheckEvery: 1000,
	}
	gate := montecarlo.DefaultAdaptive(2e-4)
	gate.Seed, gate.MaxSamples = 5, 6000
	for n := 1; n <= 3; n++ {
		engines, err := ev.CloneEngines(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name    string
			sampler sampling.Sampler
			opts    montecarlo.AdaptiveOptions
		}{{"register", ev.RandomSampler(), register}, {"stratified gate", stratified, gate}} {
			var snaps []montecarlo.Progress
			opts := run.opts
			opts.Progress = func(p montecarlo.Progress) { snaps = append(snaps, p) }
			c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, run.sampler, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s on %d engines", run.name, n)
			checkProgress(t, label, snaps, c)
			if blocks := (c.Est.N() + opts.CheckEvery - 1) / opts.CheckEvery; len(snaps) != blocks {
				t.Errorf("%s: %d snapshots for %d blocks", label, len(snaps), blocks)
			}
			if run.name == "register" && n == 2 && c.Est.N()/opts.CheckEvery%2 != 1 {
				t.Errorf("%s: stopped after %d samples, not on the first block of a round", label, c.Est.N())
			}
		}
	}
}

// TestResumedProgressCountsResumedSamples: the snapshots of a resumed
// answer count its resumed samples, so Done never falls below them.
func TestResumedProgressCountsResumedSamples(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.AdaptiveOptions{MinSamples: 6000, MaxSamples: 6000, CheckEvery: 1000, Seed: 5}
	var first *montecarlo.Campaign
	opts.Checkpoint = func(_ int64, total *montecarlo.Campaign) {
		if first == nil {
			first = total
		}
	}
	if _, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts); err != nil {
		t.Fatal(err)
	}
	resumed := first.Est.N()
	var snaps []montecarlo.Progress
	opts.Checkpoint = nil
	opts.Resume = first
	opts.Progress = func(p montecarlo.Progress) { snaps = append(snaps, p) }
	c, err := montecarlo.RunAdaptiveParallel(context.Background(), engines, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || snaps[0].Done != resumed+opts.CheckEvery {
		t.Fatalf("resumed from %d samples, first snapshots %v", resumed, snaps)
	}
	checkProgress(t, "resumed answer", snaps, c)
	if c.Est.N() != 6000 {
		t.Errorf("resumed answer has %d samples", c.Est.N())
	}
}

func TestEnginePoolRun(t *testing.T) {
	ev := evaluation(t)
	pool, err := ev.NewEnginePool(2)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 2 {
		t.Fatalf("pool size %d", pool.Size())
	}
	if pool.Engines[0] != ev.Engine {
		t.Error("pool does not reuse the evaluation's engine")
	}
	a, err := pool.RunAdaptive(context.Background(), ev.RandomSampler(), fixedSize(400, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.RunAdaptive(context.Background(), ev.RandomSampler(), fixedSize(400, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Est.N() != 400 || a.SSF() != b.SSF() || a.Successes != b.Successes {
		t.Error("pool campaigns not reproducible across reuse")
	}
}
