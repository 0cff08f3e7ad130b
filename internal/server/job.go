package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/montecarlo"
)

// Job states. A job moves queued → running → {done, failed, cancelled};
// a server shutdown moves a running job back to queued (its checkpoint
// survives on disk and the job resumes after restart).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobRequest is the body of POST /v1/jobs. Exactly one of Samples
// (fixed-size campaign) or Epsilon (adaptive campaign stopping on the
// paper's weak-LLN bound) must be set.
type JobRequest struct {
	// Samples runs a fixed-size campaign of exactly this many samples.
	Samples int `json:"samples,omitempty"`
	// Epsilon/Risk run an adaptive campaign: stop once
	// Pr[|estimate − SSF| ≥ Epsilon] ≤ Risk.
	Epsilon float64 `json:"epsilon,omitempty"`
	Risk    float64 `json:"risk,omitempty"`
	// MinSamples/MaxSamples bound the adaptive effort. They default to
	// 2000 and 1<<20, clamped to MaxSamples and to the server's sample
	// cap; a job needs MinSamples ≤ MaxSamples ≤ cap.
	MinSamples int `json:"min_samples,omitempty"`
	MaxSamples int `json:"max_samples,omitempty"`
	// Mode is "gate" (default) or "register".
	Mode string `json:"mode,omitempty"`
	// Sampler is "random", "cone", "importance" (default), or
	// "stratified".
	Sampler string `json:"sampler,omitempty"`
	// Seed makes the job reproducible: the job's blocks are seeded
	// from it and their index, so the result does not depend on the
	// server's worker count.
	Seed int64 `json:"seed"`
	// CheckEvery is the block size (default 500): the job runs in
	// blocks of this many samples, up to one per worker at a time, and
	// the convergence bound is checked after each block.
	CheckEvery int `json:"check_every,omitempty"`
	// TrackConvergence records the estimate after every block.
	TrackConvergence bool `json:"track_convergence,omitempty"`
}

// normalize applies defaults and validates against the server's caps.
func (r *JobRequest) normalize(maxSamples int) error {
	if r.Sampler == "" {
		r.Sampler = "importance"
	}
	if r.Mode == "" {
		r.Mode = "gate"
	}
	if _, err := montecarlo.ParseMode(r.Mode); err != nil {
		return err
	}
	if err := checkSampler(r.Sampler); err != nil {
		return err
	}
	fixed := r.Samples > 0
	adaptive := r.Epsilon > 0
	if fixed == adaptive {
		return fmt.Errorf("exactly one of samples or epsilon must be set")
	}
	if r.Samples < 0 || r.MinSamples < 0 || r.MaxSamples < 0 || r.CheckEvery < 0 {
		return fmt.Errorf("negative sample counts")
	}
	if adaptive {
		if r.Risk < 0 || r.Risk >= 1 {
			return fmt.Errorf("risk %v outside [0, 1)", r.Risk)
		}
		// Resolve the defaults and check the bounds here: the engine
		// raises MaxSamples to MinSamples, which would bypass the cap.
		if r.MaxSamples == 0 {
			r.MaxSamples = min(1<<20, maxSamples)
		}
		if r.MinSamples == 0 {
			r.MinSamples = min(2000, r.MaxSamples)
		}
		if r.MinSamples > r.MaxSamples {
			return fmt.Errorf("min_samples %d exceeds max_samples %d", r.MinSamples, r.MaxSamples)
		}
	}
	if r.Samples > maxSamples || r.MaxSamples > maxSamples {
		return fmt.Errorf("sample budget exceeds the server cap of %d", maxSamples)
	}
	return nil
}

// adaptiveOptions translates the request into the engine's options.
// Fixed-size jobs run through the same round loop as adaptive ones
// (MinSamples = MaxSamples = Samples pins the total exactly and needs no
// stopping criterion) so every job checkpoints and resumes uniformly.
func (r JobRequest) adaptiveOptions() montecarlo.AdaptiveOptions {
	mode, _ := montecarlo.ParseMode(r.Mode)
	o := montecarlo.AdaptiveOptions{
		Mode:             mode,
		Seed:             r.Seed,
		TrackConvergence: r.TrackConvergence,
		CheckEvery:       r.CheckEvery,
	}
	if o.CheckEvery < 1 {
		o.CheckEvery = 500
	}
	if r.Samples > 0 {
		o.MinSamples = r.Samples
		o.MaxSamples = r.Samples
		return o
	}
	o.Epsilon = r.Epsilon
	o.Risk = r.Risk
	if o.Risk == 0 {
		o.Risk = 0.05
	}
	o.MinSamples = r.MinSamples
	if o.MinSamples == 0 {
		// Job records stored before normalize resolved this default.
		o.MinSamples = 2000
	}
	o.MaxSamples = r.MaxSamples
	return o
}

// JobResult is the completed campaign, as served to clients.
type JobResult struct {
	SSF         float64   `json:"ssf"`
	StdErr      float64   `json:"std_err"`
	Variance    float64   `json:"variance"`
	CIHalfWidth float64   `json:"ci_half_width,omitempty"`
	ESS         float64   `json:"ess,omitempty"`
	Samples     int       `json:"samples"`
	Successes   int       `json:"successes"`
	RTLCycles   int       `json:"rtl_cycles"`
	Sampler     string    `json:"sampler"`
	Mode        string    `json:"mode"`
	ClassCounts [3]int    `json:"class_counts"`
	PathCounts  [4]int    `json:"path_counts"`
	Convergence []float64 `json:"convergence,omitempty"`
}

// resultFrom summarizes a campaign.
func resultFrom(c *montecarlo.Campaign) *JobResult {
	if c == nil {
		return nil
	}
	ci := c.CIHalfWidth()
	if math.IsInf(ci, 0) || math.IsNaN(ci) {
		ci = 0
	}
	return &JobResult{
		SSF:         c.SSF(),
		StdErr:      c.Est.StdErr(),
		Variance:    c.Variance(),
		CIHalfWidth: ci,
		ESS:         c.ESS(),
		Samples:     c.Est.N(),
		Successes:   c.Successes,
		RTLCycles:   c.RTLCycles,
		Sampler:     c.SamplerName,
		Mode:        c.Options.Mode.String(),
		ClassCounts: c.ClassCounts,
		PathCounts:  c.PathCounts,
		Convergence: c.Convergence,
	}
}

// ProgressEvent is one SSE progress snapshot.
type ProgressEvent struct {
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	SSF        float64 `json:"ssf"`
	RunsPerSec float64 `json:"runs_per_sec"`
	ElapsedMS  int64   `json:"elapsed_ms"`
}

// jobRecord is the persisted form of a job — everything needed to serve
// its status and to resume it after a restart.
type jobRecord struct {
	ID          string                       `json:"id"`
	Tenant      string                       `json:"tenant"`
	Request     JobRequest                   `json:"request"`
	State       string                       `json:"state"`
	SubmittedAt time.Time                    `json:"submitted_at"`
	StartedAt   time.Time                    `json:"started_at"`
	FinishedAt  time.Time                    `json:"finished_at"`
	Rounds      int64                        `json:"rounds,omitempty"`
	Checkpoint  *montecarlo.CampaignSnapshot `json:"checkpoint,omitempty"`
	Result      *JobResult                   `json:"result,omitempty"`
	Error       string                       `json:"error,omitempty"`
}

// JobStatus is the API view of a job (GET /v1/jobs/{id}). Rounds is
// the number of blocks the job's last checkpoint holds.
type JobStatus struct {
	ID          string         `json:"id"`
	Tenant      string         `json:"tenant"`
	State       string         `json:"state"`
	Request     JobRequest     `json:"request"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at,omitempty"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	Rounds      int64          `json:"rounds,omitempty"`
	Progress    *ProgressEvent `json:"progress,omitempty"`
	Result      *JobResult     `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// Job is the in-memory job: the persisted record plus the live bits
// (SSE hub, cancellation, latest progress).
type Job struct {
	mu       sync.Mutex
	rec      jobRecord          //guarded-by:mu
	progress *ProgressEvent     //guarded-by:mu
	hub      *sseHub            // immutable after newJob; the hub carries its own lock
	cancel   context.CancelFunc //guarded-by:mu
}

func newJob(rec jobRecord) *Job {
	return &Job{rec: rec, hub: newSSEHub()}
}

// status snapshots the API view.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.rec.ID,
		Tenant:      j.rec.Tenant,
		State:       j.rec.State,
		Request:     j.rec.Request,
		SubmittedAt: j.rec.SubmittedAt,
		Rounds:      j.rec.Rounds,
		Progress:    j.progress,
		Result:      j.rec.Result,
		Error:       j.rec.Error,
	}
	if !j.rec.StartedAt.IsZero() {
		t := j.rec.StartedAt
		st.StartedAt = &t
	}
	if !j.rec.FinishedAt.IsZero() {
		t := j.rec.FinishedAt
		st.FinishedAt = &t
	}
	return st
}

// state returns the current lifecycle state.
func (j *Job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// snapshotRecord copies the persisted record for saving outside the
// job's lock.
func (j *Job) snapshotRecord() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}
