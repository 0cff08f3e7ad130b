package montecarlo

import (
	"sync"
	"time"
)

// Progress is a snapshot of a running campaign, handed to the
// CampaignOptions.Progress callback. For parallel campaigns the
// snapshot aggregates every shard.
type Progress struct {
	// Done is the number of samples evaluated so far.
	Done int
	// Total is the requested sample count, or 0 when the campaign is
	// open-ended (an adaptive run whose MinSamples is below MaxSamples
	// may stop on the convergence bound).
	Total int
	// SSF is the running importance-weighted estimate over everything
	// evaluated so far.
	SSF float64
	// PathCounts is the running evaluation-path mix
	// (masked / analytical / pruned / rtl).
	PathCounts [4]int
	// Elapsed is the wall time since the campaign started.
	Elapsed time.Duration
	// RunsPerSec is the overall throughput, Done / Elapsed.
	RunsPerSec float64
}

// ProgressFunc receives campaign progress snapshots. Invocations are
// serialized (never concurrent), but may happen on any shard goroutine;
// keep the callback fast — it runs on the sampling hot path.
type ProgressFunc func(Progress)

const defaultProgressEvery = 500

// progressAgg folds per-shard counters into the campaign-wide
// snapshots delivered to the user callback. A nil *progressAgg is
// valid and inert, so call sites need no nil checks.
type progressAgg struct {
	fn    ProgressFunc
	every int
	total int
	start time.Time

	mu       sync.Mutex
	shards   []shardProgress //guarded-by:mu
	lastDone int             //guarded-by:mu
}

// shardProgress mirrors the current block of one engine (shard). The
// base fields fold in its completed blocks, since each block's campaign
// restarts its counters.
type shardProgress struct {
	baseN     int
	baseSum   float64
	basePaths [4]int
	n         int
	sum       float64
	paths     [4]int
}

// newProgressAgg returns nil (inert) when fn is nil. total of 0 marks
// an open-ended campaign.
func newProgressAgg(fn ProgressFunc, every, total, shards int) *progressAgg {
	if fn == nil {
		return nil
	}
	if every < 1 {
		every = defaultProgressEvery
	}
	return &progressAgg{
		fn:     fn,
		every:  every,
		total:  total,
		start:  time.Now(),
		shards: make([]shardProgress, shards),
	}
}

// observe records the shard's current campaign state and emits a
// snapshot once at least `every` new samples accumulated since the last
// emission (or when force is set, e.g. at the end of a shard).
func (a *progressAgg) observe(shard int, c *Campaign, force bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &a.shards[shard]
	s.n = c.Est.N()
	s.sum = c.Est.Estimate() * float64(s.n)
	s.paths = c.PathCounts
	done := 0
	sum := 0.0
	var paths [4]int
	for i := range a.shards {
		sh := &a.shards[i]
		done += sh.baseN + sh.n
		sum += sh.baseSum + sh.sum
		for j := range paths {
			paths[j] += sh.basePaths[j] + sh.paths[j]
		}
	}
	if !force && done-a.lastDone < a.every {
		return
	}
	a.lastDone = done
	p := Progress{Done: done, Total: a.total, PathCounts: paths, Elapsed: time.Since(a.start)}
	if done > 0 {
		p.SSF = sum / float64(done)
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.RunsPerSec = float64(done) / secs
	}
	a.fn(p)
}

// rebase folds the shard's current block into its base so the next
// round's block extends rather than replaces it.
func (a *progressAgg) rebase(shard int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &a.shards[shard]
	s.baseN += s.n
	s.baseSum += s.sum
	for j := range s.basePaths {
		s.basePaths[j] += s.paths[j]
	}
	s.n, s.sum, s.paths = 0, 0, [4]int{}
}
