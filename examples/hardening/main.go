// Hardening: identify the registers that carry almost all of the
// System Security Factor and evaluate the selective-hardening
// countermeasure (soft-error-resilient cells on just those registers),
// reproducing the paper's headline design-guidance result.
//
// Run with: go run ./examples/hardening
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/montecarlo"
	"repro/internal/report"
)

func main() {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		log.Fatal(err)
	}

	// Attribute SSF to registers over both attack surfaces.
	imp, err := ev.ImportanceSampler()
	if err != nil {
		log.Fatal(err)
	}
	gate, err := ev.Engine.RunCampaign(context.Background(), imp, montecarlo.CampaignOptions{Samples: 20000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	regOpts := montecarlo.CampaignOptions{Samples: 20000, Seed: 2, Mode: montecarlo.RegisterAttack}
	reg, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), regOpts)
	if err != nil {
		log.Fatal(err)
	}
	ranked := montecarlo.RankContributions(gate.RegContribution, reg.RegContribution)
	if len(ranked) == 0 {
		log.Fatal("no successful attacks observed; increase the sample count")
	}

	nl := fw.MPU.Netlist
	tbl := report.NewTable("Registers by SSF contribution", "rank", "register", "share")
	for i, cr := range ranked {
		if i >= 12 {
			break
		}
		tbl.Row(i+1, nl.Node(cr.Reg).Name, report.Percent(cr.Share))
	}
	fmt.Println(tbl)

	n95 := montecarlo.CoverageCount(ranked, 0.95)
	fmt.Printf("%d of %d registers (%.1f%%) cover 95%% of the success mass.\n\n",
		n95, len(nl.Regs()), 100*float64(n95)/float64(len(nl.Regs())))

	// Harden exactly those registers with resilient cells.
	resil, area := harden.DefaultCellParams()
	plan := harden.Plan{
		Regs:       harden.FromCritical(ranked, 0.95),
		Resilience: resil,
		AreaFactor: area,
	}
	res, err := harden.Evaluate(context.Background(), ev.Engine, ev.RandomSampler(), regOpts, plan)
	if err != nil {
		log.Fatal(err)
	}
	out := report.NewTable("Selective hardening (10x resilient cells on the critical registers)",
		"metric", "value")
	out.Row("hardened registers", res.NumRegs)
	out.Row("register fraction", report.Percent(res.RegFraction))
	out.Row("SSF before", res.BaseSSF)
	out.Row("SSF after", res.HardenedSSF)
	improvement := fmt.Sprintf("%.1fx", res.Improvement)
	switch {
	case res.Unresolved():
		improvement = fmt.Sprintf("unresolved (no hardened successes seen; 95%% bound %.3gx)", res.Improvement)
	case res.HardenedNoSuccess:
		improvement = ">= " + improvement + " (no hardened successes seen)"
	}
	out.Row("security improvement", improvement)
	out.Row("MPU area overhead", report.Percent(res.AreaOverhead))
	fmt.Println(out)
	fmt.Println("Paper reports: hardening ~3% of registers yields up to 6.5x lower SSF")
	fmt.Println("for <2% area overhead — targeted protection beats blanket hardening.")
}
