package montecarlo_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analytical"
	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/soc"
	"repro/internal/stats"
)

// TestWindowSnapshots holds the model's window snapshots to the golden
// run: one per cycle of [lo−1, TargetCycle+1], lo = TargetCycle −
// TRange + 1, each equal — architectural state, cycle, memory and
// every MPU register word — to the state reached by restoring the
// latest golden checkpoint at or before its cycle and stepping to it.
func TestWindowSnapshots(t *testing.T) {
	ev := evaluation(t)
	g := ev.Golden
	first, snaps := ev.Engine.WindowSnapshots()
	if want := g.TargetCycle - ev.Attack.TRange; first != want {
		t.Fatalf("window snapshots start at cycle %d, want %d", first, want)
	}
	if want := g.TargetCycle + 1 - first + 1; len(snaps) != want {
		t.Fatalf("%d window snapshots, want %d", len(snaps), want)
	}
	for i, snap := range snaps {
		c := first + i
		ev.Engine.StepFromCheckpoint(c)
		got := ev.Engine.SoC.Snapshot()
		if got.Cycle != snap.Cycle || got.Arch != snap.Arch || !slices.Equal(got.Mem, snap.Mem) || !slices.Equal(got.MPURegs, snap.MPURegs) {
			t.Fatalf("cycle %d: window snapshot differs from the golden checkpoint stepped to it: cycle %d/%d, arch equal %v, memory equal %v, MPU registers equal %v",
				c, snap.Cycle, got.Cycle, got.Arch == snap.Arch, slices.Equal(got.Mem, snap.Mem), slices.Equal(got.MPURegs, snap.MPURegs))
		}
	}
}

// TestModelReadOnly hashes everything the model holds after its gate
// tables are built and requires the hash unchanged by a 3-engine gate
// campaign and a 3-engine register campaign on the model's engines.
func TestModelReadOnly(t *testing.T) {
	ev := evaluation(t)
	pool, err := ev.NewEnginePool(3)
	if err != nil {
		t.Fatal(err)
	}
	ev.Engine.SpotRecordRejects(ev.Attack.SampleNominal(rand.New(rand.NewSource(1))))
	if !ev.Engine.GateTablesBuilt() {
		t.Fatal("gate tables not built")
	}
	before := ev.Engine.ModelDigest()
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	gate := fixedSize(6000, 3)
	if _, err := montecarlo.RunAdaptiveParallel(context.Background(), pool.Engines, sampler, gate); err != nil {
		t.Fatal(err)
	}
	reg := fixedSize(6000, 4)
	reg.Mode = montecarlo.RegisterAttack
	if _, err := montecarlo.RunAdaptiveParallel(context.Background(), pool.Engines, ev.RandomSampler(), reg); err != nil {
		t.Fatal(err)
	}
	for i, eng := range pool.Engines {
		if after := eng.ModelDigest(); after != before {
			t.Errorf("engine %d: model digest %s after the campaigns, %s before", i, after, before)
		}
	}
}

// separateEngines builds n engines over the evaluation's program and
// attack that share no model: each runs its own static verification
// and golden run, with its own SoC and analytical evaluator.
func separateEngines(t *testing.T, ev *core.Evaluation, n int) []*montecarlo.Engine {
	t.Helper()
	fw := ev.Framework
	out := make([]*montecarlo.Engine, n)
	for i := range out {
		s, err := soc.WithMPU(fw.Opts.SoC, ev.Program, fw.MPU)
		if err != nil {
			t.Fatal(err)
		}
		eval, err := analytical.New(fw.MPU)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := montecarlo.New(s, ev.Attack, fw.Place, fw.Opts.Delay, fw.Char, eval)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunGolden(core.CheckpointInterval); err != nil {
			t.Fatal(err)
		}
		out[i] = eng
	}
	return out
}

// TestClonesMatchSeparateEngines: pools of 1, 2 and 3 engines built by
// Clone, which share one model, run fixed-size and adaptive gate and
// register campaigns bit-identical to pools of engines that each ran
// their own golden run.
func TestClonesMatchSeparateEngines(t *testing.T) {
	ev := evaluation(t)
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	adaptive := montecarlo.AdaptiveOptions{
		Seed: 11, Epsilon: 2e-3, Risk: 1 / (stats.Z95 * stats.Z95),
		MinSamples: 3000, MaxSamples: 12000, CheckEvery: 500, TrackConvergence: true,
	}
	for n := 1; n <= 3; n++ {
		pool, err := ev.NewEnginePool(n)
		if err != nil {
			t.Fatal(err)
		}
		separate := separateEngines(t, ev, n)
		for _, mode := range []montecarlo.Mode{montecarlo.GateAttack, montecarlo.RegisterAttack} {
			for _, run := range []struct {
				name string
				opts montecarlo.AdaptiveOptions
			}{{"fixed", fixedSize(4000, 9)}, {"adaptive", adaptive}} {
				opts := run.opts
				opts.Mode = mode
				label := fmt.Sprintf("%d engines, %v, %s", n, mode, run.name)
				got, err := montecarlo.RunAdaptiveParallel(context.Background(), pool.Engines, sampler, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := montecarlo.RunAdaptiveParallel(context.Background(), separate, sampler, opts)
				if err != nil {
					t.Fatal(err)
				}
				compareCampaigns(t, label, got, want)
				if got.Est.N() != want.Est.N() || got.PathCounts[montecarlo.PathRTL] == 0 {
					t.Errorf("%s: %d vs %d samples, paths %v", label, got.Est.N(), want.Est.N(), got.PathCounts)
				}
			}
		}
	}
}

// TestColdModelSharedBuild runs 3-engine gate campaigns on fresh
// evaluations, so the three shards race to build the model's gate
// tables (the race detector, under make race, checks that build; it
// misses an unguarded build on some schedules, so the test builds
// several models), and requires each to match the same campaign once
// the tables exist.
func TestColdModelSharedBuild(t *testing.T) {
	for range 4 {
		ev := evaluation(t)
		pool, err := ev.NewEnginePool(3)
		if err != nil {
			t.Fatal(err)
		}
		if pool.Engines[0].GateTablesBuilt() {
			t.Fatal("gate tables built before the first gate campaign")
		}
		sampler, err := ev.ImportanceSampler()
		if err != nil {
			t.Fatal(err)
		}
		opts := fixedSize(3000, 5)
		cold, err := montecarlo.RunAdaptiveParallel(context.Background(), pool.Engines, sampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := montecarlo.RunAdaptiveParallel(context.Background(), pool.Engines, sampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareCampaigns(t, "cold vs warm model", cold, warm)
	}
}
