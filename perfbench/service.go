package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverWorkers is the server's engine pool size: both cores.
const serverWorkers = 2

// server is one cmd/ssfserver process with a fresh job store.
type server struct {
	cmd    *exec.Cmd
	base   string
	store  string
	log    *os.File
	client *http.Client
	done   chan error
	// HTTPErrors counts responses outside 2xx, including 429s.
	HTTPErrors int
}

// startServer launches the server and returns once /healthz answers.
func startServer(bin, workdir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	store := filepath.Join(workdir, fmt.Sprintf("store-%d", os.Getpid()))
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	logf, err := os.Create(store + ".log")
	if err != nil {
		return nil, err
	}
	s := &server{
		base:  "http://127.0.0.1:" + strconv.Itoa(port),
		store: store,
		log:   logf,
		done:  make(chan error, 1),
		// One connection carries submit and result requests, the other
		// the SSE stream: a closed loop of one client with one job in
		// flight never needs more.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
	s.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-workers", strconv.Itoa(serverWorkers),
		"-rate", "0",
		"-store", store)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when the
	// benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	for {
		if time.Since(t0) > 120*time.Second {
			s.stop()
			return nil, fmt.Errorf("server not healthy after 120s (log %s)", logf.Name())
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("server exited during start-up: %v (log %s)", err, logf.Name())
		default:
		}
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop ends the server (SIGTERM, then SIGKILL after 10 s), waits for it
// to exit and removes its store.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	if s.cmd.ProcessState == nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.log.Close()
	os.RemoveAll(s.store)
	os.Remove(s.log.Name())
}

// jobStatus mirrors the fields of the server's job status the benchmark
// reads.
type jobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
	Rounds      int        `json:"rounds"`
	Error       string     `json:"error"`
	Result      *struct {
		SSF         float64 `json:"ssf"`
		CIHalfWidth float64 `json:"ci_half_width"`
		Samples     int     `json:"samples"`
		Successes   int     `json:"successes"`
		RTLCycles   int     `json:"rtl_cycles"`
		PathCounts  [4]int  `json:"path_counts"`
	} `json:"result"`
}

func (s *server) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		s.HTTPErrors++
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// awaitTerminal streams the job's SSE events until the terminal event
// and returns its name.
func (s *server) awaitTerminal(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		s.HTTPErrors++
		return "", fmt.Errorf("events %s: %s", id, resp.Status)
	}
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if ok && (name == "done" || name == "failed" || name == "cancelled") {
			terminal = name
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events %s: %w", id, err)
	}
	if terminal == "" {
		return "", fmt.Errorf("events %s: stream ended without a terminal event", id)
	}
	return terminal, nil
}

// answer submits one job, follows its events to the end and fetches the
// result: the closed loop of one client.
func (s *server) answer(ctx context.Context, w *workload, seed int64) answer {
	// An answer that never gets a result keeps a NaN SSF, which the
	// output check flags.
	a := answer{Seed: seed, SSF: math.NaN()}
	body, _ := json.Marshal(map[string]any{
		"epsilon":     w.epsilon,
		"risk":        risk,
		"min_samples": minSamples,
		"max_samples": maxSamples,
		"mode":        w.mode.String(),
		"sampler":     w.sampler,
		"seed":        seed,
		"batch":       true,
		"check_every": w.checkEvery,
	})
	t0 := time.Now()
	data, err := s.do(ctx, http.MethodPost, "/v1/jobs", body)
	a.SubmitMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	var st jobStatus
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	if err == nil {
		_, err = s.awaitTerminal(ctx, st.ID)
	}
	if err == nil {
		data, err = s.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
	}
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	a.Seconds = time.Since(t0).Seconds()
	switch {
	case err != nil:
		a.Failed = err.Error()
	case st.State != "done":
		a.Failed = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil || st.StartedAt == nil || st.FinishedAt == nil:
		a.Failed = fmt.Sprintf("job %s done without result or timestamps", st.ID)
	default:
		r := st.Result
		a.Samples, a.SSF, a.CI, a.Successes = r.Samples, r.SSF, r.CIHalfWidth, r.Successes
		a.Paths, a.RTLCycles, a.Rounds = r.PathCounts, r.RTLCycles, st.Rounds
		a.QueueMs = float64(st.StartedAt.Sub(st.SubmittedAt).Nanoseconds()) / 1e6
		a.RunMs = float64(st.FinishedAt.Sub(*st.StartedAt).Nanoseconds()) / 1e6
	}
	w.judge(&a)
	return a
}

// vmHWM reads the VmHWM line of a /proc status file, in MB.
func vmHWM(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
