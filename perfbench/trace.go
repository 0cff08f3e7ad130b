package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Calls > 1 marks a span covering a loop of that many calls.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Answer int    `json:"answer"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same replay code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, answer int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Answer: answer, Calls: 1})
	return len(t.spans) - 1
}

func (t *tracer) end(i, calls int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].Calls = calls
}

// rename gives a finished span its final name (a RunOnce span is named
// after the path its result took).
func (t *tracer) rename(i int, name string) {
	if t != nil {
		t.spans[i].Name = name
	}
}

// perCall is the mean duration per call of the named spans, in ns.
func (t *tracer) perCall(name string) float64 {
	var d, n int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n += int64(s.Calls)
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(d) / float64(n)
}

// selfTimes is each layer's self time: the duration of its spans minus
// the part their child spans cover. The layer is the span name up to
// its first dot.
func (t *tracer) selfTimes() map[string]int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[i]
	}
	return out
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAnswers is how many answers of the pass the traced replays and
// probes use; probeChunks bounds the per-call probes to the first
// chunks of each.
const (
	tracedAnswers = 3
	probeChunks   = 8
	serverProbe   = 5
)

// runTraced is the per-layer run: a traced set-up, one untraced pass
// (the counts), a few of its answers as server jobs (the server
// figures), then traced replays of the pass's first answers, call by
// call, into each layer.
func runTraced(cfg *config) (map[string]float64, error) {
	w := cfg.w
	ctx := context.Background()
	tr := &tracer{t0: time.Now()}
	m := map[string]float64{}

	e, err := setupTraced(w, tr, m)
	if err != nil {
		return nil, err
	}

	// The pass runs untraced on the workload's engine; then a few of the
	// workload's answers go through the server as jobs, so every run
	// measures the service layers with its own jobs.
	if _, err := e.answer(ctx, w, w.seedBase-1); err != nil {
		return nil, err
	}
	_, first, refMs, err := runPasses(ctx, cfg, e, newHostRef(), 1)
	if err != nil {
		return nil, err
	}
	jobs, httpErrors, err := serverJobs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	checkPass(cfg, first)
	counts := passCounts(first)
	for i, p := range []string{"masked", "analytical", "pruned", "rtl"} {
		m["montecarlo.path_share."+p] = float64(counts.PathCounts[i]) / float64(counts.SamplesTotal)
	}
	m["montecarlo.rtl_cycles_per_sample"] = float64(counts.RTLCycles) / float64(counts.SamplesTotal)
	m["montecarlo.rounds_per_answer"] = float64(counts.Rounds) / float64(len(first))
	m["host.ref_ms"] = median(refMs)
	var submit, queue, runMs, rounds []float64
	for _, a := range jobs {
		submit = append(submit, a.SubmitMs)
		queue = append(queue, a.QueueMs)
		runMs = append(runMs, a.RunMs)
		rounds = append(rounds, float64(a.Rounds))
	}
	m["server.submit_ms"] = median(submit)
	m["server.queue_wait_ms"] = median(queue)
	m["server.run_ms"] = median(runMs)
	m["server.checkpoints_per_job"] = mean(rounds)
	m["server.http_errors"] = float64(httpErrors)

	// Replays of the first answers: untraced, then traced, chunk by
	// chunk as the sequential adaptive runner draws them.
	replayed := first[:tracedAnswers]
	var plain, traced time.Duration
	var samples int
	for i, a := range replayed {
		t0 := time.Now()
		replay(e, w, a, nil, -1, i)
		plain += time.Since(t0)
		root := tr.begin("bench.replay", -1, i)
		paths := replay(e, w, a, tr, root, i)
		tr.end(root, a.Samples)
		traced += time.Duration(tr.spans[root].End - tr.spans[root].Start)
		samples += a.Samples
		if paths != a.Paths {
			cfg.problem("replay of answer seed %d took paths %v, the answer %v", a.Seed, paths, a.Paths)
		}
	}
	m["trace.sample_ns"] = float64(traced.Nanoseconds()) / float64(samples)
	m["trace.overhead_ratio"] = float64(traced) / float64(plain)
	m["sampling.draw_ns"] = tr.perCall("sampling.Draw")
	m["montecarlo.batch_ns_per_sample"] = tr.perCall("montecarlo.RunBatch")

	if err := probeCalls(e, w, replayed, tr, m); err != nil {
		return nil, err
	}
	probeSoC(e, tr, m)
	if err := probeRounds(ctx, e, w, replayed, tr, m); err != nil {
		return nil, err
	}

	path := filepath.Join(cfg.workdir, "trace", fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	printSelfTimes(tr, path)
	fmt.Printf("draw_ns + batch_ns_per_sample = %.1f ns vs traced %.1f ns per sample (%+.1f%%)\n",
		m["sampling.draw_ns"]+m["montecarlo.batch_ns_per_sample"], m["trace.sample_ns"],
		100*((m["sampling.draw_ns"]+m["montecarlo.batch_ns_per_sample"])/m["trace.sample_ns"]-1))
	return m, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func printSelfTimes(tr *tracer, path string) {
	self := tr.selfTimes()
	var layers []string
	var total int64
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("self time per layer over %d spans (%s):\n", len(tr.spans), path)
	for _, l := range layers {
		fmt.Printf("  %-12s %10.1f ms %5.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(total))
	}
}

// setupTraced performs core.Build, NewEvaluation and NewEnginePool step
// by step, one span per layer.
func setupTraced(w *workload, tr *tracer, m map[string]float64) (*env, error) {
	opts := core.DefaultOptions()
	setup := tr.begin("bench.setup", -1, -1)
	timed := func(name, metric string, f func() error) error {
		s := tr.begin(name, setup, -1)
		err := f()
		tr.end(s, 1)
		m[metric] = float64(tr.spans[s].End-tr.spans[s].Start) / 1e6
		return err
	}
	var mpu *soc.MPU
	var char *precharac.Characterization
	var place *placement.Placement
	var ev *core.Evaluation
	var pool *core.EnginePool
	err := timed("soc.BuildMPU", "soc.build_mpu_ms", func() (err error) {
		mpu, err = soc.BuildMPU(opts.SoC.MPU)
		return err
	})
	if err == nil {
		err = timed("precharac.Characterize", "precharac.characterize_ms", func() error {
			synth, err := soc.WithMPU(opts.SoC, soc.SyntheticProgram(opts.SoC.DMABase, opts.SoC.DMALimit), mpu)
			if err != nil {
				return err
			}
			char, err = precharac.Characterize(synth, opts.Precharac)
			return err
		})
	}
	if err == nil {
		err = timed("placement.Place", "placement.place_ms", func() error {
			place = placement.Place(mpu.Netlist)
			return nil
		})
	}
	fw := &core.Framework{Opts: opts, MPU: mpu, Place: place, Char: char}
	if err == nil {
		err = timed("montecarlo.NewEvaluation", "montecarlo.golden_ms", func() (err error) {
			ev, err = fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
			return err
		})
	}
	if err == nil {
		err = timed("core.NewEnginePool", "core.pool_ms", func() (err error) {
			pool, err = ev.NewEnginePool(1)
			return err
		})
	}
	tr.end(setup, 1)
	if err != nil {
		return nil, err
	}
	return finishEnv(w, fw, ev, pool)
}

// serverJobs sends the first few answers of the list through a server
// and returns them with the server's count of non-2xx responses.
func serverJobs(ctx context.Context, cfg *config) ([]answer, int, error) {
	w := cfg.w
	srv, err := startServer(cfg.serverBin, cfg.workdir)
	if err != nil {
		return nil, 0, err
	}
	defer srv.stop()
	srv.answer(ctx, w, w.seedBase-1)
	var jobs []answer
	for _, seed := range cfg.order[:serverProbe] {
		a := srv.answer(ctx, w, seed)
		cfg.attempted++
		if a.Failed != "" {
			cfg.failed++
			cfg.failReason[a.Failed]++
		}
		if a.Wrong != "" {
			cfg.problem("server job seed %d: %s", seed, a.Wrong)
		}
		jobs = append(jobs, a)
	}
	return jobs, srv.HTTPErrors, nil
}

// chunkRand is the random stream of chunk c of a sequential adaptive
// answer: the runner seeds chunk c with seed·999983 + c. (The workloads'
// samplers are stateless, so the runner draws from them directly.)
func chunkRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*999983 + int64(c)))
}

// replay re-evaluates an answer's own draws chunk by chunk through
// Engine.RunBatch, with one span per chunk for the draws and one for the
// batch, and returns the path counts.
func replay(e *env, w *workload, a answer, tr *tracer, parent, id int) [4]int {
	var paths [4]int
	eng := e.pool.Engines[0]
	buf := make([]fault.Sample, w.checkEvery)
	chunks := (a.Samples + w.checkEvery - 1) / w.checkEvery
	for c := 0; c < chunks; c++ {
		rng := chunkRand(a.Seed, c)
		d := tr.begin("sampling.Draw", parent, id)
		for j := range buf {
			buf[j], _ = e.sampler.Draw(rng)
		}
		tr.end(d, len(buf))
		b := tr.begin("montecarlo.RunBatch", parent, id)
		for _, r := range eng.RunBatch(rng, buf, w.mode) {
			paths[r.Path]++
		}
		tr.end(b, len(buf))
	}
	return paths
}

// probeCalls times single calls on the first chunks of the replayed
// answers: scalar RunOnce bucketed by the path it took, the analytical
// outcome of analytical-path results, and, for every draw, the strike
// the engine builds (spot lookup plus Attack.StrikeFrom) and its timed
// injection on a fork of the engine's timing simulator against the
// golden values of its injection cycle. Register workloads never strike
// gates; their draws are replayed as gate strikes to price the layer.
func probeCalls(e *env, w *workload, answers []answer, tr *tracer, m map[string]float64) error {
	eng := e.pool.Engines[0]
	g := eng.Golden()
	tsim := eng.Timing.Fork()
	golden, err := goldenValues(e)
	if err != nil {
		return err
	}
	buf := make([]fault.Sample, w.checkEvery)
	spots := e.fw.Place.NewSpotIndex()
	var widths []float64
	flips, strikes := 0, 0
	for id, a := range answers {
		root := tr.begin("bench.probe", -1, id)
		for c := 0; c < probeChunks && c*w.checkEvery < a.Samples; c++ {
			rng := chunkRand(a.Seed, c)
			for j := range buf {
				buf[j], _ = e.sampler.Draw(rng)
			}
			for _, s := range buf {
				r1 := tr.begin("montecarlo.RunOnce", root, id)
				res := eng.RunOnce(rng, s, w.mode)
				tr.end(r1, 1)
				tr.rename(r1, "montecarlo.RunOnce."+res.Path.String())
				te := g.TargetCycle - s.T
				if res.Path == montecarlo.PathAnalytical {
					window := accessWindow(g, te, g.MarkedIssue)
					o := tr.begin("analytical.Outcome", root, id)
					eng.Analytical.Outcome(g.Policy, eng.SoC.Prog, window, res.Flipped)
					tr.end(o, 1)
				}
				values, err := golden(te)
				if err != nil {
					return err
				}
				st := tr.begin("fault.Strike", root, id)
				gates, dists := spots.CombWithin(s.Center, s.Radius)
				var strike timingsim.Strike
				strike, widths = e.ev.Attack.StrikeFrom(s, gates, dists, widths)
				tr.end(st, 1)
				if len(gates) == 0 {
					continue // the engine injects nothing for an empty spot
				}
				in := tr.begin("timingsim.Inject", root, id)
				flipped := tsim.InjectBits(values, strike).FlippedRegs
				tr.end(in, 1)
				flips += len(flipped)
				strikes++
			}
		}
		tr.end(root, 1)
	}
	for _, p := range []string{"masked", "analytical", "pruned", "rtl"} {
		m["montecarlo.runonce_ns."+p] = tr.perCall("montecarlo.RunOnce." + p)
	}
	m["analytical.outcome_ns"] = tr.perCall("analytical.Outcome")
	m["fault.strike_ns"] = tr.perCall("fault.Strike")
	m["timingsim.inject_ns"] = tr.perCall("timingsim.Inject")
	m["timingsim.flipped_regs_mean"] = float64(flips) / float64(strikes)
	return nil
}

// accessWindow returns the golden accesses issued in [from, to), the
// window the analytical evaluator replays.
func accessWindow(g *montecarlo.Golden, from, to int) []soc.AccessEvent {
	lo := sort.Search(len(g.Accesses), func(i int) bool { return g.Accesses[i].Cycle >= from })
	hi := sort.Search(len(g.Accesses), func(i int) bool { return g.Accesses[i].Cycle >= to })
	if hi < lo {
		hi = lo
	}
	return g.Accesses[lo:hi]
}

// goldenValues returns, per injection cycle, the fault-free value of
// every MPU node at that cycle's closing edge as the dense bitset
// Simulator.InjectBits reads, captured on a separate SoC restored from
// the golden checkpoints.
func goldenValues(e *env) (func(te int) ([]uint64, error), error) {
	s, err := soc.WithMPU(e.fw.Opts.SoC, e.ev.Program, e.fw.MPU)
	if err != nil {
		return nil, err
	}
	g := e.pool.Engines[0].Golden()
	n := e.fw.MPU.Netlist.NumNodes()
	cache := map[int][]uint64{}
	return func(te int) ([]uint64, error) {
		if bits, ok := cache[te]; ok {
			return bits, nil
		}
		idx := te / g.Interval
		if idx >= len(g.Checkpoints) {
			idx = len(g.Checkpoints) - 1
		}
		for idx > 0 && g.Checkpoints[idx].Cycle > te {
			idx--
		}
		s.Restore(g.Checkpoints[idx])
		for s.Cycle() < te {
			s.Step()
		}
		bits := make([]uint64, (n+63)/64)
		s.StepInject(func(v func(netlist.NodeID) bool) []netlist.NodeID {
			for i := 0; i < n; i++ {
				if v(netlist.NodeID(i)) {
					bits[i/64] |= 1 << (i % 64)
				}
			}
			return nil
		})
		cache[te] = bits
		if len(cache) > 4*e.ev.Attack.TRange {
			return nil, fmt.Errorf("injection cycle %d outside the attack window", te)
		}
		return bits, nil
	}, nil
}

// probeSoC times the RTL building blocks on a separate SoC over the
// golden trajectory from the attack window to the end of the run, where
// RTL resumes spend their cycles: restoring a checkpoint, stepping a
// cycle, and one combinational evaluation of the MPU netlist.
func probeSoC(e *env, tr *tracer, m map[string]float64) {
	s, err := soc.WithMPU(e.fw.Opts.SoC, e.ev.Program, e.fw.MPU)
	if err != nil {
		panic(err) // the evaluation built the same SoC already
	}
	g := e.pool.Engines[0].Golden()
	lo := g.TargetCycle - e.ev.Attack.TRange - g.Interval
	root := tr.begin("bench.soc", -1, -1)
	for rep := 0; rep < 20; rep++ {
		for _, cp := range g.Checkpoints {
			if cp.Cycle < lo {
				continue
			}
			r := tr.begin("soc.Restore", root, -1)
			s.Restore(cp)
			tr.end(r, 1)
			for k := 0; k < g.Interval && !s.Done(); k++ {
				st := tr.begin("soc.Step", root, -1)
				s.Step()
				tr.end(st, 1)
			}
			for k := 0; k < 4; k++ {
				ev := tr.begin("logicsim.Eval", root, -1)
				s.Sim.Eval()
				tr.end(ev, 1)
			}
		}
	}
	tr.end(root, 1)
	m["soc.restore_ns"] = tr.perCall("soc.Restore")
	m["soc.step_ns"] = tr.perCall("soc.Step")
	m["logicsim.eval_ns"] = tr.perCall("logicsim.Eval")
}

// probeRounds runs the replayed answers through the round-based runner
// the server uses, RunAdaptiveParallel, on a pool of serverWorkers
// engines, and times, at every round's checkpoint, the checkpoint
// payload (Campaign.Snapshot plus JSON) and one merge of a round-sized
// campaign into the running total.
func probeRounds(ctx context.Context, e *env, w *workload, answers []answer, tr *tracer, m map[string]float64) error {
	engines, err := e.ev.CloneEngines(serverWorkers)
	if err != nil {
		return err
	}
	var bytes []float64
	var mergeErr error
	for id, a := range answers {
		root := tr.begin("bench.rounds", -1, id)
		opts := w.adaptive(a.Seed)
		var firstRound *montecarlo.Campaign
		opts.Checkpoint = func(rounds int64, total *montecarlo.Campaign) {
			s := tr.begin("montecarlo.Snapshot", root, id)
			data, err := json.Marshal(total.Snapshot())
			tr.end(s, 1)
			if err != nil && mergeErr == nil {
				mergeErr = err
			}
			bytes = append(bytes, float64(len(data)))
			if firstRound == nil {
				firstRound = total
				return
			}
			c := total.Clone()
			mg := tr.begin("montecarlo.Merge", root, id)
			err = c.Merge(firstRound)
			tr.end(mg, 1)
			if err != nil && mergeErr == nil {
				mergeErr = err
			}
		}
		if _, err := montecarlo.RunAdaptiveParallel(ctx, engines, e.sampler, opts); err != nil {
			return err
		}
		tr.end(root, 1)
	}
	if mergeErr != nil {
		return mergeErr
	}
	m["montecarlo.snapshot_us"] = tr.perCall("montecarlo.Snapshot") / 1e3
	m["montecarlo.merge_us"] = tr.perCall("montecarlo.Merge") / 1e3
	m["montecarlo.snapshot_bytes"] = mean(bytes)
	return nil
}

// longCampaign is the reference SSF of a workload: one fixed-size
// campaign of 4M samples with the workload's sampler and mode on one
// engine, with a seed no answer uses.
func longCampaign(w *workload) (float64, float64, string, error) {
	const n, seed = 1 << 22, 7777777
	e, err := setupEnv(w)
	if err != nil {
		return 0, 0, "", err
	}
	c, err := e.pool.Engines[0].RunCampaign(context.Background(), e.sampler,
		montecarlo.CampaignOptions{Samples: n, Mode: w.mode, Seed: seed, Batch: true})
	if err != nil {
		return 0, 0, "", err
	}
	src := fmt.Sprintf("%s %s campaign, %d samples, seed %d", w.mode, e.sampler.Name(), n, seed)
	return c.SSF(), c.CIHalfWidth(), src, nil
}
