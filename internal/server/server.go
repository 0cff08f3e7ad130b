// Package server turns the Monte Carlo campaign engine into a
// long-running evaluation service: an HTTP/JSON API over a job queue
// that runs campaigns across a core.EnginePool in seeded blocks (a
// job's result does not depend on the pool size), streams progress
// over SSE, checkpoints every job to an on-disk store so a restarted
// server resumes interrupted jobs bit-identically, applies per-tenant
// token-bucket rate limits, and bounds the queue with backpressure
// (429 + Retry-After). The headline POST /v1/rank endpoint evaluates N
// hardening variants of the design and returns a ranked SSF
// leaderboard.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
)

// Config tunes the service. The zero value is usable: defaults are
// applied by New.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it get 429 + Retry-After. Default 64.
	QueueDepth int
	// RatePerSec and Burst configure the per-tenant token bucket over
	// job and rank submissions. RatePerSec <= 0 disables limiting.
	RatePerSec float64
	Burst      float64
	// MaxSamples caps any single job's sample budget. Default 1<<22.
	MaxSamples int
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1 << 22
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server is the evaluation service. Build with New, attach Handler to
// an http.Server, call Start to begin draining the job queue, and
// Shutdown to stop: a job running at shutdown is checkpointed and
// re-queued, and the next Start (same store directory) resumes it from
// the last completed round — the final result is bit-identical to an
// uninterrupted run of the same request.
type Server struct {
	cfg    Config
	pool   *core.EnginePool
	store  *Store
	limits *limiterPool

	// poolMu serializes use of the engine pool between the job worker
	// and synchronous rank requests (the engines are single-campaign).
	poolMu sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*Job             //guarded-by:mu
	queue    chan *Job                   // immutable after New; channel ops are self-synchronizing
	samplers map[string]sampling.Sampler //guarded-by:mu

	runCtx  context.Context    //guarded-by:mu
	cancel  context.CancelFunc //guarded-by:mu
	wg      sync.WaitGroup
	started bool //guarded-by:mu
}

// New builds a server over an engine pool and a store directory,
// loading every persisted job: finished jobs become queryable history,
// interrupted ones (queued or running at the previous shutdown) are
// re-queued for resumption in their original submission order.
func New(pool *core.EnginePool, storeDir string, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if pool == nil || pool.Size() == 0 {
		return nil, fmt.Errorf("server: nil or empty engine pool")
	}
	store, err := NewStore(storeDir)
	if err != nil {
		return nil, err
	}
	recs, loadErrs := store.Load()
	for _, lerr := range loadErrs {
		cfg.Logf("server: store recovery: %v", lerr)
	}
	s := &Server{
		cfg:      cfg,
		pool:     pool,
		store:    store,
		limits:   newLimiterPool(cfg.RatePerSec, cfg.Burst),
		jobs:     make(map[string]*Job, len(recs)),
		samplers: make(map[string]sampling.Sampler),
	}
	var pending []*Job
	for _, rec := range recs {
		if rec.State == StateRunning {
			// Interrupted mid-run: back to the queue, keeping the
			// checkpoint the resume will start from.
			rec.State = StateQueued
		}
		j := newJob(rec)
		s.jobs[rec.ID] = j
		if rec.State == StateQueued {
			pending = append(pending, j)
		}
	}
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	s.queue = make(chan *Job, depth)
	for _, j := range pending {
		s.queue <- j
	}
	return s, nil
}

// Start launches the job worker. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	ctx, cancel := context.WithCancel(context.Background())
	s.runCtx, s.cancel = ctx, cancel
	s.wg.Add(1)
	// The worker gets its context as a parameter rather than reading
	// s.runCtx, so a later Start (after Shutdown) can reassign the field
	// without the old goroutine ever observing it.
	go s.worker(ctx)
}

// Shutdown stops the worker, cancelling any running campaign (it
// checkpoints at round granularity, so at most one round of work is
// redone after restart), and waits for it to settle.
func (s *Server) Shutdown() {
	s.mu.Lock()
	started := s.started
	cancel := s.cancel
	s.mu.Unlock()
	if !started {
		return
	}
	cancel()
	s.wg.Wait()
	s.mu.Lock()
	s.started = false
	s.mu.Unlock()
}

// worker drains the queue, one job at a time: the engine pool runs one
// campaign at a time, and each job's samples are already partitioned
// across every engine in the pool.
func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(ctx, j)
		}
	}
}

// job looks up a job by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// sampler returns (building and caching on first use) the named
// sampling strategy over the pool's evaluation, with the default α and
// β. Samplers are immutable after construction and safe for concurrent
// Draw with distinct rngs.
func (s *Server) sampler(name string) (sampling.Sampler, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp, ok := s.samplers[name]; ok {
		return sp, nil
	}
	sp, err := s.pool.Evaluation.Sampler(name, sampling.DefaultAlpha, sampling.DefaultBeta)
	if err != nil {
		return nil, err
	}
	s.samplers[name] = sp
	return sp, nil
}

// submit registers and enqueues a new job, returning it with its status
// at acceptance. Once the job is on the queue an idle worker may start
// it at any moment, so a status read afterwards can already say
// running. A full queue reports backpressure via errQueueFull.
func (s *Server) submit(tenant string, req JobRequest) (*Job, JobStatus, error) {
	id, err := newID()
	if err != nil {
		return nil, JobStatus{}, err
	}
	j := newJob(jobRecord{
		ID:          id,
		Tenant:      tenant,
		Request:     req,
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
	})
	accepted := j.status()
	s.mu.Lock()
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		return nil, JobStatus{}, errQueueFull
	}
	if err := s.store.Save(j.snapshotRecord()); err != nil {
		s.cfg.Logf("server: persist %s: %v", id, err)
	}
	return j, accepted, nil
}

var errQueueFull = errors.New("server: job queue full")

// cancelJob cancels a queued or running job.
func (s *Server) cancelJob(j *Job) bool {
	j.mu.Lock()
	switch j.rec.State {
	case StateQueued:
		j.rec.State = StateCancelled
		j.rec.FinishedAt = time.Now().UTC()
		hub := j.hub
		rec := j.rec
		j.mu.Unlock()
		hub.finish(sseMsg{event: StateCancelled, data: mustJSON(map[string]string{"state": StateCancelled})})
		if err := s.store.Save(rec); err != nil {
			s.cfg.Logf("server: persist %s: %v", rec.ID, err)
		}
		return true
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// runJob executes one job end to end: resume from its checkpoint if
// one exists, checkpoint after every round, stream progress to the
// job's SSE hub, and persist the terminal state. A server shutdown
// mid-job re-queues it instead of failing it.
func (s *Server) runJob(ctx context.Context, j *Job) {
	j.mu.Lock()
	if j.rec.State != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.rec.State = StateRunning
	if j.rec.StartedAt.IsZero() {
		j.rec.StartedAt = time.Now().UTC()
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.cancel = cancel
	rec := j.rec
	j.mu.Unlock()
	if err := s.store.Save(rec); err != nil {
		s.cfg.Logf("server: persist %s: %v", rec.ID, err)
	}

	sp, err := s.sampler(rec.Request.Sampler)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	aopts := rec.Request.adaptiveOptions()
	if rec.Checkpoint != nil {
		aopts.Resume = rec.Checkpoint.Campaign()
	}
	aopts.Progress = func(p montecarlo.Progress) {
		ev := &ProgressEvent{
			Done:        p.Done,
			Total:       p.Total,
			SSF:         p.SSF,
			CIHalfWidth: finite(p.CIHalfWidth),
			ESS:         p.ESS,
			RunsPerSec:  p.RunsPerSec,
			ElapsedMS:   p.Elapsed.Milliseconds(),
		}
		j.mu.Lock()
		j.progress = ev
		hub := j.hub
		j.mu.Unlock()
		hub.publish(sseMsg{event: "progress", data: mustJSON(ev)})
	}
	aopts.Checkpoint = func(blocks int64, total *montecarlo.Campaign) {
		j.mu.Lock()
		j.rec.Rounds = blocks
		j.rec.Checkpoint = total.Snapshot()
		cp := j.rec
		j.mu.Unlock()
		if err := s.store.Save(cp); err != nil {
			s.cfg.Logf("server: checkpoint %s: %v", cp.ID, err)
		}
	}

	s.poolMu.Lock()
	camp, err := s.pool.RunAdaptive(jctx, sp, aopts)
	s.poolMu.Unlock()

	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		// Server shutdown: back to the queue; the on-disk checkpoint
		// resumes the job after restart.
		j.mu.Lock()
		j.rec.State = StateQueued
		j.cancel = nil
		rec := j.rec
		j.mu.Unlock()
		if err := s.store.Save(rec); err != nil {
			s.cfg.Logf("server: persist %s: %v", rec.ID, err)
		}
		// Best-effort re-enqueue so an in-process Start after Shutdown
		// picks the job up again (a process restart re-queues it from
		// the store instead).
		select {
		case s.queue <- j:
		default:
		}
		return
	}
	s.finishJob(j, camp, err)
}

// finishJob records a job's terminal state, keeping the partial result
// when the campaign produced one: cancelled by its client when err is
// context.Canceled, failed with any other non-nil err, done otherwise.
func (s *Server) finishJob(j *Job, camp *montecarlo.Campaign, err error) {
	j.mu.Lock()
	j.cancel = nil
	j.rec.FinishedAt = time.Now().UTC()
	j.rec.Result = resultFrom(camp)
	j.rec.Checkpoint = nil // the result supersedes the checkpoint
	state := StateDone
	switch {
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	case err != nil:
		state = StateFailed
		j.rec.Error = err.Error()
	}
	j.rec.State = state
	rec := j.rec
	hub := j.hub
	j.mu.Unlock()
	if serr := s.store.Save(rec); serr != nil {
		s.cfg.Logf("server: persist %s: %v", rec.ID, serr)
	}
	st := j.status()
	hub.finish(sseMsg{event: state, data: mustJSON(st)})
}

// newID returns a 12-hex-digit random job ID.
func newID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// mustJSON marshals values whose types cannot fail to encode.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
