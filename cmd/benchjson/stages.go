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

	"repro/internal/montecarlo"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// stageRecord is BENCH_stages.json: per workload, the share of a
// time-to-answer run's CPU time spent in each stage.
type stageRecord struct {
	Workloads []stageSplit `json:"workloads"`
}

type stageSplit struct {
	Name    string `json:"name"`
	Answers int    `json:"answers"`
	Passes  int    `json:"passes"`
	// Samples is the number of Monte Carlo samples over all passes,
	// CPUSamples the number of profile samples the shares come from.
	Samples    int          `json:"samples"`
	CPUSamples int          `json:"cpu_samples"`
	Shares     []stageShare `json:"shares"`
}

type stageShare struct {
	Stage string  `json:"stage"`
	Share float64 `json:"share"`
}

const mcEngine = "repro/internal/montecarlo.(*Engine)."

// stages lists the stages in report order, each with the functions that
// open it. A CPU sample belongs to the stage of the innermost such
// function on its stack, inlined frames included, and to "other" when
// there is none. A function matches a pattern it starts with, so a
// pattern can name a package or a type. The timed sweep includes strike
// construction and every timingsim.Simulator method (the pruned entry,
// the kernel and the per-cycle tables); merge includes the per-sample
// accumulation.
var stages = []struct {
	name     string
	patterns []string
}{
	{"draw", []string{"repro/internal/sampling."}},
	{"spot lookup", []string{"repro/internal/placement.(*SpotIndex)."}},
	{"latch bound", []string{"repro/internal/timingsim.(*LatchTable)."}},
	{"timed sweep", []string{"repro/internal/fault.(*Attack).StrikeFrom", "repro/internal/timingsim.(*Simulator)."}},
	{"classify", []string{mcEngine + "classifySingle", "repro/internal/analytical."}},
	{"lane-batched resume", []string{mcEngine + "resumeBatch"}},
	{"grouped resume", []string{mcEngine + "resumeClasses", mcEngine + "resumeGroup", mcEngine + "splitGroup"}},
	{"resume ordering", []string{mcEngine + "flushResumes"}},
	{"merge", []string{mcEngine + "accumulate", "repro/internal/montecarlo.(*Campaign).Merge", "repro/internal/montecarlo.mergeShards"}},
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

// stagesSuite profiles stagePasses passes of stageAnswers answers per
// workload and splits each profile by stage.
func stagesSuite() stageRecord {
	_, ev := setup()
	pool, err := ev.NewEnginePool(1)
	if err != nil {
		fatal(err)
	}
	var rec stageRecord
	for _, w := range stageWorkloads {
		var sp sampling.Sampler = ev.RandomSampler()
		if w.importance {
			if sp, err = ev.ImportanceSampler(); err != nil {
				fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			fatal(err)
		}
		samples := 0
		for range stagePasses {
			for a := range stageAnswers {
				c, err := pool.RunAdaptive(context.Background(), sp, montecarlo.AdaptiveOptions{
					Mode: w.mode, Seed: w.seedBase + int64(a), Epsilon: w.eps,
					Risk:       1 / (stats.Z95 * stats.Z95),
					MinSamples: 10000, MaxSamples: 1 << 21, CheckEvery: 1000,
					Batch: true,
				})
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
			CPUSamples: len(prof.samples), Shares: prof.stageShares()}
		fmt.Printf("%s: %d samples, %d profile samples\n", w.name, samples, split.CPUSamples)
		for _, s := range split.Shares {
			fmt.Printf("  %-20s %5.1f%%\n", s.Stage, 100*s.Share)
		}
		rec.Workloads = append(rec.Workloads, split)
	}
	return rec
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
