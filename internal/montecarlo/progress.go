package montecarlo

import "time"

// Progress is a snapshot of a running campaign, handed to the
// Progress callback of CampaignOptions or AdaptiveOptions. Every field
// but the timing ones is read from the committed total: the campaign
// the call would return if it stopped at that point, resumed samples
// included.
type Progress struct {
	// Done is the number of committed samples.
	Done int
	// Total is the requested sample count, or 0 when the campaign is
	// open-ended (an adaptive run whose MinSamples is below MaxSamples
	// may stop on the convergence bound).
	Total int
	// SSF, CIHalfWidth and ESS are the committed total's Campaign.SSF,
	// Campaign.CIHalfWidth and Campaign.ESS.
	SSF, CIHalfWidth, ESS float64
	// PathCounts is the committed evaluation-path mix
	// (masked / analytical / pruned / rtl).
	PathCounts [4]int
	// Elapsed is the wall time since the call started.
	Elapsed time.Duration
	// RunsPerSec is the call's own throughput: the samples it
	// committed (Done less a resumed total) over Elapsed.
	RunsPerSec float64
}

// ProgressFunc receives campaign progress snapshots: RunCampaign
// reports after every 2,048 committed samples and after the last,
// RunAdaptiveParallel after every committed block. The
// callback runs on the calling goroutine while no sample is evaluated,
// so keep it fast.
type ProgressFunc func(Progress)

// reporter builds Progress snapshots from a committed total; without a
// callback it reports nothing.
type reporter struct {
	fn      ProgressFunc
	total   int // Progress.Total
	resumed int // samples committed before the call started
	start   time.Time
}

func newReporter(fn ProgressFunc, total, resumed int) reporter {
	return reporter{fn: fn, total: total, resumed: resumed, start: time.Now()}
}

// report hands the callback a snapshot of the committed total c.
func (r reporter) report(c *Campaign) {
	if r.fn == nil {
		return
	}
	p := Progress{
		Done:        c.Est.N(),
		Total:       r.total,
		SSF:         c.SSF(),
		CIHalfWidth: c.CIHalfWidth(),
		ESS:         c.ESS(),
		PathCounts:  c.PathCounts,
		Elapsed:     time.Since(r.start),
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.RunsPerSec = float64(p.Done-r.resumed) / secs
	}
	r.fn(p)
}
