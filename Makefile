GO ?= go

.PHONY: build test race bench bench-smoke lint fuzz-smoke smoke-server gen

build:
	$(GO) build ./...

# gen regenerates every go:generate artifact — today that is the MPU's
# straight-line evaluator (internal/soc/mpu_evalgen.go, produced by
# cmd/gnlgen). Run after changing the MPU netlist or the logicsim
# compiler, then commit the result; CI fails on drift.
gen:
	$(GO) generate ./...

# test also vets and self-tests perfbench/: it is its own module, so
# ./... skips it, and an API it calls could vanish unnoticed.
test:
	$(GO) test ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

race:
	$(GO) test -race ./internal/montecarlo/... ./internal/timingsim/... ./internal/logicsim/... ./internal/stats/... ./internal/sampling/... ./internal/server/... ./internal/precharac/... ./internal/netlist/... ./internal/core/...

# smoke-server is the evaluation-service e2e check: build cmd/ssfserver,
# submit a job over HTTP, stream its SSE progress, kill the server after
# its first checkpoints, restart it on the same store, and require the
# resumed result to be bit-identical to an uninterrupted run.
smoke-server:
	./scripts/smoke_ssfserver.sh

# lint runs the full static-analysis stack: a gofmt check over every
# tracked Go file, go vet, the project's custom
# determinism/concurrency analyzers (cmd/vetall), the netlist/model
# linter over the shipped circuits and the built-in MPU — including the
# PL plan-verifier rules (-plan) that re-check every compiled logicsim
# plan against its source netlist — and, when the binaries are
# installed, staticcheck and govulncheck. The last two are gated on
# availability so lint works in hermetic build environments; CI installs
# them explicitly (at pinned versions).
lint:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "lint: gofmt -l lists:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/vetall
	$(GO) run ./cmd/netlint -plan examples/circuits/*.gnl
	$(GO) run ./cmd/netlint -plan -builtin
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# fuzz-smoke gives the fuzz targets a short budget each: enough to
# catch parser, checkpoint-decoding, request-decoding, evaluator- or
# sweep-equivalence regressions without stalling CI.
fuzz-smoke:
	$(GO) test ./internal/netlist/ -fuzz FuzzNetlistDeserialize -fuzztime=20s
	$(GO) test ./internal/logicsim/ -run '^FuzzPlanEquivalence$$' -fuzz '^FuzzPlanEquivalence$$' -fuzztime=20s
	$(GO) test ./internal/logicsim/codegen/ -run '^FuzzCodegenEquivalence$$' -fuzz '^FuzzCodegenEquivalence$$' -fuzztime=20s
	$(GO) test ./internal/montecarlo/ -run '^FuzzCampaignSnapshot$$' -fuzz '^FuzzCampaignSnapshot$$' -fuzztime=20s
	$(GO) test ./internal/server/ -run '^FuzzJobRequest$$' -fuzz '^FuzzJobRequest$$' -fuzztime=20s
	$(GO) test ./internal/server/ -run '^FuzzRankRequest$$' -fuzz '^FuzzRankRequest$$' -fuzztime=20s
	$(GO) test ./internal/timingsim/ -run '^FuzzInjectEquivalence$$' -fuzz '^FuzzInjectEquivalence$$' -fuzztime=20s

# bench regenerates the committed perf records: BENCH_runonce.json (the
# per-run hot path: ns/op + allocs/op for RunOnce, GateInjection,
# RTLCycle), BENCH_campaign.json (per-sample campaign cost, scalar vs
# lane-batched vs lane-batched with the interpreted evaluator on gate
# attacks, lane-batched on register attacks, plus one generated vs
# interpreted 64-lane eval pass, with the speedup ratios),
# BENCH_convergence.json (per-sampler samples-to-target-CI —
# statistical efficiency rather than wall time), and BENCH_stages.json
# (each stage's share of the CPU time of perfbench-style answers, from
# CPU profiles; not gated).
bench:
	$(GO) run ./cmd/benchjson -suite runonce -out BENCH_runonce.json
	$(GO) run ./cmd/benchjson -suite campaign -out BENCH_campaign.json
	$(GO) run ./cmd/benchjson -suite convergence -out BENCH_convergence.json
	$(GO) run ./cmd/benchjson -suite stages -out BENCH_stages.json

# bench-smoke is the cheap CI guard: the hot-path benchmarks must still
# compile and run, and fresh runonce and campaign records must stay
# within tolerance of the committed ones (generous 0.75 to absorb
# shared-runner noise). The convergence record counts samples, not time
# — fixed-seed deterministic — so it is gated at a tight 0.05.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRunOnce$$|BenchmarkGateInjection$$|BenchmarkCampaignBatched$$|BenchmarkCampaignBatchedRegister$$' -benchtime=100x .
	$(GO) test -run '^$$' -bench 'BenchmarkMPUEval$$' -benchtime=100x ./internal/soc/
	$(GO) run ./cmd/benchjson -suite runonce -out /tmp/bench_smoke.json
	$(GO) run ./cmd/benchjson -compare -tolerance 0.75 BENCH_runonce.json /tmp/bench_smoke.json
	$(GO) run ./cmd/benchjson -suite campaign -out /tmp/bench_campaign_smoke.json
	$(GO) run ./cmd/benchjson -compare -tolerance 0.75 BENCH_campaign.json /tmp/bench_campaign_smoke.json
	$(GO) run ./cmd/benchjson -suite convergence -out /tmp/bench_conv_smoke.json
	$(GO) run ./cmd/benchjson -compare -tolerance 0.05 BENCH_convergence.json /tmp/bench_conv_smoke.json
