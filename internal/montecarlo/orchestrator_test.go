package montecarlo_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/montecarlo"
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
		Progress: prog, ProgressEvery: 50,
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
	opts.ProgressEvery = 50
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

func TestProgressReporting(t *testing.T) {
	ev := evaluation(t)
	var snaps []montecarlo.Progress
	opts := montecarlo.CampaignOptions{
		Samples: 1000, Seed: 1,
		Progress:      func(p montecarlo.Progress) { snaps = append(snaps, p) },
		ProgressEvery: 100,
	}
	c, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 5 {
		t.Fatalf("only %d progress snapshots", len(snaps))
	}
	prev := 0
	for _, p := range snaps {
		if p.Done < prev {
			t.Fatalf("Done went backwards: %d after %d", p.Done, prev)
		}
		prev = p.Done
		if p.Total != 1000 {
			t.Errorf("Total = %d", p.Total)
		}
	}
	final := snaps[len(snaps)-1]
	if final.Done != 1000 {
		t.Errorf("final Done = %d", final.Done)
	}
	if math.Abs(final.SSF-c.SSF()) > 1e-12 {
		t.Errorf("final progress SSF %v, campaign %v", final.SSF, c.SSF())
	}
	paths := 0
	for _, n := range final.PathCounts {
		paths += n
	}
	if paths != 1000 {
		t.Errorf("final path mix sums to %d", paths)
	}
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
	opts.ProgressEvery = 100
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
	if math.Abs(final.SSF-c.SSF()) > 1e-9 {
		t.Errorf("aggregate SSF %v, merged campaign %v", final.SSF, c.SSF())
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
