package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs            submit a campaign job (202 + status)
//	GET    /v1/jobs            list jobs, newest first
//	GET    /v1/jobs/{id}       job status / result
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/events  SSE progress stream
//	POST   /v1/rank            evaluate hardening variants, ranked SSF
//	GET    /healthz            liveness
//
// Tenancy for rate limiting comes from the X-Tenant header ("default"
// when absent).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/rank", s.handleRank)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "workers": s.pool.Size()})
	})
	return mux
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// checkRate applies the per-tenant token bucket; on rejection it writes
// 429 + Retry-After and reports false.
func (s *Server) checkRate(w http.ResponseWriter, r *http.Request) bool {
	ok, retry := s.limits.allow(tenantOf(r), time.Now())
	if ok {
		return true
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
	writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.checkRate(w, r) {
		return
	}
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.normalize(s.cfg.MaxSamples); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, st, err := s.submit(tenantOf(r), req)
	if err == errQueueFull {
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusTooManyRequests, "job queue full")
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.jobs))
	//maporder-ok (sorted by submission time then id below)
	for _, j := range s.jobs {
		statuses = append(statuses, j.status())
	}
	s.mu.Unlock()
	sort.Slice(statuses, func(i, k int) bool {
		if !statuses[i].SubmittedAt.Equal(statuses[k].SubmittedAt) {
			return statuses[i].SubmittedAt.After(statuses[k].SubmittedAt)
		}
		return statuses[i].ID < statuses[k].ID
	})
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.cancelJob(j) {
		writeError(w, http.StatusConflict, "job already %s", j.state())
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's progress as server-sent events:
// "progress" events while running, then one terminal event named after
// the final state ("done", "failed", "cancelled") carrying the full
// job status, after which the stream closes. A client connecting to a
// finished job receives the terminal event immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(flushWriter{w: w, f: fl})

	backlog, ch, cancel := j.hub.subscribe()
	defer cancel()
	for _, m := range backlog {
		if writeSSE(bw, m) != nil {
			return
		}
	}
	if ch == nil {
		return // job already terminal; backlog carried the final event
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case m, open := <-ch:
			if !open {
				// Hub finished after we subscribed: replay the
				// terminal event.
				if final, _, _ := j.hub.subscribe(); len(final) > 0 {
					// Stream ends either way; a write error just means
					// the client is already gone.
					_ = writeSSE(bw, final[len(final)-1])
				}
				return
			}
			if writeSSE(bw, m) != nil {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the ResponseWriter: once the status line
	// is out, an encode failure (e.g. a NaN float) would truncate the
	// body under a success code. After WriteHeader the write error is
	// unactionable (client gone), so that one is deliberately dropped.
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		data = []byte(`{"error":"response encoding failed"}`)
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data = append(data, '\n')
	_, _ = w.Write(data)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
