#!/usr/bin/env bash
# End-to-end smoke test for cmd/ssfserver: submit a job, stream its SSE
# progress, fetch the result; then run the identical job again, kill the
# server after its first checkpoints, restart it on the same store with
# one worker instead of two, let the job resume, and require the resumed
# SSF to be bit-identical to the uninterrupted run (a job's blocks are
# seeded by their index, so the result depends on the request alone, not
# on the worker count).
#
# Usage: scripts/smoke_ssfserver.sh [port]
set -euo pipefail

PORT="${1:-18080}"
BASE="http://127.0.0.1:${PORT}"
# Large enough that the second run is still running when the server is
# stopped, with blocks large enough to keep checkpoint writes few.
SAMPLES=3000000
JOB='{"samples":'"$SAMPLES"',"check_every":2000,"sampler":"random","seed":42}'

command -v jq >/dev/null || { echo "smoke: jq is required" >&2; exit 1; }

WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

say() { echo "smoke: $*"; }

start_server() { # worker count
    "$WORKDIR/ssfserver" -addr "127.0.0.1:${PORT}" -workers "$1" -rate 0 \
        -store "$WORKDIR/store" -checkpoint-every 1 >>"$WORKDIR/server.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 240); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "smoke: server died on startup:" >&2
            cat "$WORKDIR/server.log" >&2
            exit 1
        fi
        sleep 0.5
    done
    echo "smoke: server never became healthy" >&2
    exit 1
}

stop_server() {
    kill -TERM "$SERVER_PID"
    for _ in $(seq 1 60); do
        kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=""; return 0; }
        sleep 0.5
    done
    echo "smoke: server ignored SIGTERM" >&2
    exit 1
}

submit_job() {
    curl -sf -X POST "$BASE/v1/jobs" -d "$JOB" | jq -r '.id'
}

job_field() { # id, jq expression
    curl -sf "$BASE/v1/jobs/$1" | jq -r "$2"
}

wait_done() { # id
    for _ in $(seq 1 600); do
        case "$(job_field "$1" '.state')" in
            done) return 0 ;;
            failed|cancelled)
                echo "smoke: job $1 ended $(job_field "$1" '.state'): $(job_field "$1" '.error')" >&2
                exit 1 ;;
        esac
        sleep 0.5
    done
    echo "smoke: job $1 never finished" >&2
    exit 1
}

say "building ssfserver"
go build -o "$WORKDIR/ssfserver" ./cmd/ssfserver

say "starting server on port $PORT with 2 workers"
start_server 2

say "submitting reference job ($SAMPLES samples)"
JOB_A="$(submit_job)"
[ -n "$JOB_A" ] && [ "$JOB_A" != null ] || { echo "smoke: submit failed" >&2; exit 1; }

say "sampling the SSE progress stream"
SSE="$(curl -sN --max-time 3 "$BASE/v1/jobs/$JOB_A/events" | head -20 || true)"
echo "$SSE" | grep -q "^event: " || { echo "smoke: no SSE events:"; echo "$SSE"; exit 1; } >&2

wait_done "$JOB_A"
SSF_A="$(job_field "$JOB_A" '.result.ssf')"
say "reference job done: ssf=$SSF_A"

say "submitting identical job and killing the server mid-run"
JOB_B="$(submit_job)"
for _ in $(seq 1 200); do
    ROUNDS="$(job_field "$JOB_B" '.rounds // 0')"
    [ "$ROUNDS" -ge 2 ] && break
    STATE="$(job_field "$JOB_B" '.state')"
    if [ "$STATE" != queued ] && [ "$STATE" != running ]; then
        echo "smoke: job $JOB_B reached $STATE before any checkpoint" >&2
        exit 1
    fi
    sleep 0.05
done
[ "${ROUNDS:-0}" -ge 2 ] || { echo "smoke: no checkpoint before timeout" >&2; exit 1; }
say "job $JOB_B checkpointed $ROUNDS blocks; stopping server"
stop_server
STORED="$(jq -r '.state' "$WORKDIR/store/job-$JOB_B.json")"
if [ "$STORED" != queued ]; then
    echo "smoke: job $JOB_B was $STORED at shutdown, not interrupted: the resume went untested" >&2
    exit 1
fi

say "restarting server on the same store with 1 worker"
start_server 1
STATE="$(job_field "$JOB_B" '.state')"
case "$STATE" in
    queued|running|done) say "job $JOB_B recovered in state $STATE" ;;
    *) echo "smoke: job $JOB_B in unexpected state $STATE after restart" >&2; exit 1 ;;
esac
wait_done "$JOB_B"
SSF_B="$(job_field "$JOB_B" '.result.ssf')"
SAMPLES_B="$(job_field "$JOB_B" '.result.samples')"
say "resumed job done: ssf=$SSF_B samples=$SAMPLES_B"

if [ "$SSF_A" != "$SSF_B" ]; then
    echo "smoke: resumed SSF $SSF_B differs from uninterrupted SSF $SSF_A" >&2
    exit 1
fi
if [ "$SAMPLES_B" != "$SAMPLES" ]; then
    echo "smoke: resumed job ran $SAMPLES_B samples, want $SAMPLES" >&2
    exit 1
fi
say "PASS: checkpoint resume is bit-identical ($SSF_A)"
