// Command ssfserver runs the campaign engine as a long-running
// HTTP/JSON evaluation service: submit campaign jobs (fixed-size or
// adaptive), stream their progress over SSE, fetch results, and rank
// hardening variants on a ranked SSF leaderboard. Jobs run in seeded
// blocks across a pool of worker engines, so the worker count changes
// only the speed; they are checkpointed to an on-disk store every round
// and resumed bit-identically after a restart, on any worker count. See
// the README's "Evaluation server" section for the API and a curl
// quick-start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", defaultWorkers(), "engine pool size: blocks a job runs at once (changes only the speed)")
	storeDir := flag.String("store", "ssfserver-data", "job store directory (checkpoints and results)")
	benchName := flag.String("bench", "write", "benchmark: write | read")
	tRange := flag.Int("trange", 50, "temporal accuracy range (cycles)")
	blockFrac := flag.Float64("block", 0.125, "candidate sub-block fraction of MPU gates; the block never drops the decision logic (912 of 1,274 gates on the default MPU), so any value below ~0.716 selects the same block")
	queueDepth := flag.Int("queue", 64, "bounded job queue depth (backpressure beyond it)")
	rate := flag.Float64("rate", 5, "per-tenant submissions per second (0 disables rate limiting)")
	burst := flag.Float64("burst", 10, "per-tenant burst size")
	checkpointEvery := flag.Int64("checkpoint-every", 1, "checkpoint cadence in blocks of a job's check_every samples")
	maxSamples := flag.Int("max-samples", 1<<22, "per-job sample budget cap")
	flag.Parse()

	bench := core.BenchmarkIllegalWrite
	if *benchName == "read" {
		bench = core.BenchmarkIllegalRead
	} else if *benchName != "write" {
		fatal(fmt.Errorf("unknown benchmark %q", *benchName))
	}

	t0 := time.Now()
	opts := core.DefaultOptions()
	if *tRange+1 > opts.Precharac.MaxDepth {
		opts.Precharac.MaxDepth = *tRange + 1
	}
	fw, err := core.Build(opts)
	if err != nil {
		fatal(err)
	}
	spec := core.DefaultAttackSpec()
	spec.TRange = *tRange
	spec.BlockFrac = *blockFrac
	ev, err := fw.NewEvaluation(bench, spec)
	if err != nil {
		fatal(err)
	}
	pool, err := ev.NewEnginePool(*workers)
	if err != nil {
		fatal(err)
	}
	log.Printf("ssfserver: framework ready in %v (%d worker engines, %s benchmark)",
		time.Since(t0).Round(time.Millisecond), pool.Size(), bench)

	srv, err := server.New(pool, *storeDir, server.Config{
		QueueDepth:      *queueDepth,
		CheckpointEvery: *checkpointEvery,
		RatePerSec:      *rate,
		Burst:           *burst,
		MaxSamples:      *maxSamples,
	})
	if err != nil {
		fatal(err)
	}
	srv.Start()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("ssfserver: shutting down (running job checkpoints and re-queues)")
		srv.Shutdown()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	log.Printf("ssfserver: listening on %s (store %s)", *addr, *storeDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// defaultWorkers sizes the pool to the host without over-cloning: each
// engine holds its own SoC, simulators and scratch.
func defaultWorkers() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssfserver:", err)
	os.Exit(1)
}
