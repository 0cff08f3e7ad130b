package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// stageRecord is BENCH_stages.json: per workload, the share of a
// time-to-answer run's CPU time spent in each stage, and the
// multi-engine rows.
type stageRecord struct {
	Workloads []stageSplit  `json:"workloads"`
	Parallel  []parallelRow `json:"parallel"`
}

type stageSplit struct {
	Name    string `json:"name"`
	Answers int    `json:"answers"`
	Passes  int    `json:"passes"`
	// Samples is the number of Monte Carlo samples over all passes,
	// CPUSamples the number of profile samples (one per 10 ms of CPU)
	// the shares come from.
	Samples    int          `json:"samples"`
	CPUSamples int          `json:"cpu_samples"`
	Shares     []stageShare `json:"shares"`
}

type stageShare struct {
	Stage string  `json:"stage"`
	Share float64 `json:"share"`
}

// parallelRow is one multi-engine row: a workload's answers through
// RunAdaptiveParallel on a pool of Engines engines, timed on the wall
// clock (not profiled, and not gated).
type parallelRow struct {
	Name    string `json:"name"`
	Engines int    `json:"engines"`
	Answers int    `json:"answers"`
	Samples int    `json:"samples"`
	// AnswerP50 is the median wall time of one answer; SamplesPerSec
	// is the samples of all answers over their summed wall time.
	AnswerP50     float64 `json:"time_to_answer_p50_s"`
	SamplesPerSec float64 `json:"samples_per_s"`
}

const mcEngine = "repro/internal/montecarlo.(*Engine)."

// stages lists the stages in report order, each with the functions that
// open it. A CPU sample belongs to the stage of the innermost such
// function on its stack, inlined frames included, and to "other" when
// there is none. A function matches a pattern it starts with, so a
// pattern can name a package or a type. The latch bound is every
// timingsim.CycleTable method (the check InjectPruned makes, the spot
// record check before the spot lookup, and the table's latch pass) and
// the engine's spot table, whose front bits precede the record check.
// The timed sweep includes strike construction and
// every timingsim.Simulator method (the pruned entry, the kernel and
// the flip tables); merge includes the per-sample accumulation.
var stages = []struct {
	name     string
	patterns []string
}{
	{"draw", []string{"repro/internal/sampling."}},
	{"spot lookup", []string{"repro/internal/placement.(*SpotIndex)."}},
	{"latch bound", []string{"repro/internal/timingsim.(*CycleTable).", "repro/internal/montecarlo.(*spotTable)."}},
	{"timed sweep", []string{"repro/internal/fault.(*Attack).StrikeFrom", "repro/internal/timingsim.(*Simulator)."}},
	{"classify", []string{mcEngine + "classifySingle", "repro/internal/analytical."}},
	{"lane-batched resume", []string{mcEngine + "resumeSweep"}},
	{"grouped resume", []string{mcEngine + "resumeClasses", mcEngine + "resumeGroup", mcEngine + "splitGroup"}},
	{"resume ordering", []string{mcEngine + "flushResumes"}},
	{"merge", []string{mcEngine + "accumulate", "repro/internal/montecarlo.(*Campaign).Merge", "repro/internal/montecarlo.commitBlocks"}},
}

const otherStage = "other"

// stageWorkloads are perfbench's two workloads with its options: one
// engine, batched, a 95% CI half-width of eps, MinSamples 10000,
// CheckEvery 1000, answers seeded seedBase, seedBase+1, ...
var stageWorkloads = []struct {
	name       string
	mode       montecarlo.Mode
	importance bool
	eps        float64
	seedBase   int64
}{
	{"gate_importance", montecarlo.GateAttack, true, 1e-4, 1000},
	{"register_random", montecarlo.RegisterAttack, false, 2e-3, 2000},
}

const (
	stageAnswers = 40
	// stagePasses repeats the answers so that the shares rest on a few
	// hundred profile samples even on the faster workload.
	stagePasses = 5
)

// answerOptions are perfbench's adaptive options for one answer of
// workload w.
func answerOptions(w int, seed int64) montecarlo.AdaptiveOptions {
	return montecarlo.AdaptiveOptions{
		Mode: stageWorkloads[w].mode, Seed: seed, Epsilon: stageWorkloads[w].eps,
		Risk:       1 / (stats.Z95 * stats.Z95),
		MinSamples: 10000, MaxSamples: 1 << 21, CheckEvery: 1000,
	}
}

// stagesSuite profiles stagePasses passes of stageAnswers answers per
// workload and splits each profile by stage, then adds the
// multi-engine rows.
func stagesSuite() stageRecord {
	_, ev := setup()
	pool, err := ev.NewEnginePool(1)
	if err != nil {
		fatal(err)
	}
	var rec stageRecord
	passSamples := make([]int, len(stageWorkloads))
	for wi, w := range stageWorkloads {
		sp := samplerOf(ev, wi)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			fatal(err)
		}
		samples := 0
		for range stagePasses {
			for a := range stageAnswers {
				c, err := pool.RunAdaptive(context.Background(), sp, answerOptions(wi, w.seedBase+int64(a)))
				if err != nil {
					pprof.StopCPUProfile()
					fatal(fmt.Errorf("%s answer %d: %w", w.name, a, err))
				}
				samples += c.Est.N()
			}
		}
		pprof.StopCPUProfile()
		prof, err := parseProfile(buf.Bytes())
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		split := stageSplit{Name: w.name, Answers: stageAnswers, Passes: stagePasses, Samples: samples,
			CPUSamples: prof.count(), Shares: prof.stageShares()}
		fmt.Printf("%s: %d samples, %d profile samples\n", w.name, samples, split.CPUSamples)
		for _, s := range split.Shares {
			fmt.Printf("  %-20s %5.1f%%\n", s.Stage, 100*s.Share)
		}
		rec.Workloads = append(rec.Workloads, split)
		passSamples[wi] = samples / stagePasses
	}
	for wi := range stageWorkloads {
		for _, n := range []int{1, 2} {
			rec.Parallel = append(rec.Parallel, parallelRowOf(ev, wi, n, passSamples[wi]))
		}
	}
	return rec
}

// samplerOf returns workload w's sampler.
func samplerOf(ev *core.Evaluation, w int) sampling.Sampler {
	if !stageWorkloads[w].importance {
		return ev.RandomSampler()
	}
	sp, err := ev.ImportanceSampler()
	if err != nil {
		fatal(err)
	}
	return sp
}

// parallelRowOf times stagePasses passes of stageAnswers answers of
// workload wi through RunAdaptiveParallel on a pool of n engines, after
// one warm-up answer that builds every engine's batch state. Answers do
// not depend on the engine count, so every pass must take passSamples,
// the samples of the profiled one-engine pass; it exits otherwise.
func parallelRowOf(ev *core.Evaluation, wi, n, passSamples int) parallelRow {
	pool, err := ev.NewEnginePool(n)
	if err != nil {
		fatal(err)
	}
	sp := samplerOf(ev, wi)
	w := stageWorkloads[wi]
	answer := func(seed int64) int {
		c, err := montecarlo.RunAdaptiveParallel(context.Background(), pool.Engines, sp, answerOptions(wi, seed))
		if err != nil {
			fatal(fmt.Errorf("%s on %d engines, seed %d: %w", w.name, n, seed, err))
		}
		return c.Est.N()
	}
	answer(w.seedBase - 1)
	row := parallelRow{Name: w.name, Engines: n, Answers: stagePasses * stageAnswers}
	times := make([]float64, 0, row.Answers)
	total := 0.0
	for range stagePasses {
		pass := 0
		for a := range stageAnswers {
			start := time.Now()
			pass += answer(w.seedBase + int64(a))
			times = append(times, time.Since(start).Seconds())
			total += times[len(times)-1]
		}
		if pass != passSamples {
			fatal(fmt.Errorf("%s on %d engines: a pass took %d samples, on one engine %d", w.name, n, pass, passSamples))
		}
		row.Samples += pass
	}
	row.AnswerP50 = stats.Quantile(times, 0.5)
	row.SamplesPerSec = float64(row.Samples) / total
	fmt.Printf("%s, RunAdaptiveParallel on %d engines: p50 %.4f s per answer, %.0f samples/s\n",
		w.name, n, row.AnswerP50, row.SamplesPerSec)
	return row
}

// profile is the part of a pprof profile the stage split reads.
type profile struct {
	samples []profSample
	// frames maps a location id to its function ids, innermost inlined
	// frame first; names maps a function id to its name.
	frames map[uint64][]uint64
	names  map[uint64]string
}

type profSample struct {
	locs []uint64 // leaf first
	// values are the sample's values, one per sample type; the last is
	// the CPU time in a CPU profile.
	values []uint64
}

// stageOf returns the stage of the innermost stage function on the
// sample's stack.
func (p *profile) stageOf(s profSample) string {
	for _, loc := range s.locs {
		for _, fn := range p.frames[loc] {
			name := p.names[fn]
			for _, st := range stages {
				for _, pat := range st.patterns {
					if strings.HasPrefix(name, pat) {
						return st.name
					}
				}
			}
		}
	}
	return otherStage
}

// count returns the number of profile samples: a CPU profile records
// one sample record per distinct stack, whose first value counts the
// samples taken there.
func (p *profile) count() int {
	n := 0
	for _, s := range p.samples {
		if len(s.values) > 0 {
			n += int(s.values[0])
		}
	}
	return n
}

// stageShares returns every stage's share of the profile's weight, its
// samples' last values, in report order with other last.
func (p *profile) stageShares() []stageShare {
	weight := map[string]uint64{}
	var total uint64
	for _, s := range p.samples {
		if len(s.values) > 0 {
			v := s.values[len(s.values)-1]
			weight[p.stageOf(s)] += v
			total += v
		}
	}
	shares := make([]stageShare, 0, len(stages)+1)
	for _, st := range stages {
		shares = append(shares, stageShare{Stage: st.name})
	}
	shares = append(shares, stageShare{Stage: otherStage})
	if total > 0 {
		for i := range shares {
			shares[i].Share = float64(weight[shares[i].Stage]) / float64(total)
		}
	}
	return shares
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto):
// samples, locations with their inlined lines, functions and the string
// table. Everything else is skipped.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{frames: map[uint64][]uint64{}, names: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.values, v, b)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.frames[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, n := range funcName {
		if n < uint64(len(strs)) {
			p.names[id] = strs[n]
		}
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's value: one varint, or
// a packed run of them when b is set.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
