GO ?= go

# Bump per PR that re-baselines the benchmark report.
BENCH_JSON ?= BENCH_7.json
# The previous baseline, compared against by benchsmoke when both exist.
BENCH_PREV ?= BENCH_6.json

.PHONY: build test vet fmt race check bench benchtest benchsmoke tracesmoke auditsmoke perfsmoke telemetrysmoke layoutcheck

# Tier-1: everything must compile and every test must pass.
build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The formatting gate: every tracked Go file must be gofmt-clean. Listing
# tracked files keeps build output (.bench_build/) out of the check.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The parallel kernel's data-race guard: short-mode race run over the
# packages that execute under the worker pool. traffic is included because
# its parallel tests exercise the activity engine's park/wake churn across
# shards, the path most likely to hide an ordering race.
race:
	$(GO) test -race -short ./internal/sim ./internal/system ./internal/noc ./internal/traffic ./internal/obs/telemetry

# The full local CI gate.
check: fmt vet layoutcheck test benchtest race benchsmoke tracesmoke auditsmoke perfsmoke telemetrysmoke

# The benchmark (bench/, see BENCHMARK.json) is a module of its own, which
# the root `go test ./...` never reaches: its unit tests and a smoke run of
# every workload.
benchtest:
	$(GO) -C bench test ./...

# The struct-layout gate: pinned sizes for the cache-line-conscious hot
# structs (Flit, cache.Line, Link, Activity) and fieldalignment-style hole
# detection over the exported hot structs of cache, noc, sim and stats.
layoutcheck:
	$(GO) run ./cmd/layoutcheck

# The allocation-regression harness: the Fig6a end-to-end sweep, the
# network-only router benchmark, the raw kernel stepping benchmark, the
# real-mesh kernel throughput curve (mesh size × worker count), and the
# activity-engine curve (mesh size × injection rate × skip on/off), with
# allocation counting, aggregated into a JSON baseline (see cmd/benchjson).
bench:
	( $(GO) test -bench 'BenchmarkFig6aNormalizedRuntime$$|BenchmarkRouterThroughput$$' \
		-benchmem -count=3 -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkKernelThroughput' \
		-benchmem -count=3 -run '^$$' ./internal/sim ; \
	  $(GO) test -bench 'BenchmarkKernelThroughputMesh' \
		-benchmem -count=3 -run '^$$' ./internal/system ; \
	  $(GO) test -bench 'BenchmarkKernelThroughputIdle' \
		-benchmem -count=3 -run '^$$' ./internal/traffic ) \
	| $(GO) run ./cmd/benchjson > $(BENCH_JSON)
	@cat $(BENCH_JSON)

# One cheap iteration of the same benchmarks: the check gate proves they
# still run without committing to a full measurement. The unanchored
# RouterThroughput pattern also runs the traced variant, so tracing-on is
# exercised on every check. The final line is the parallel-speedup guard:
# on a multi-core host, workers=NumCPU must not step a warm mesh slower
# than serial (the test skips itself on single-CPU machines). The idle-skip
# guard after it holds the activity engine to its design bounds: >= 2x
# cycles/s on a near-idle mesh, <= 5% overhead at saturation.
benchsmoke:
	$(GO) test -bench 'BenchmarkRouterThroughput' -benchmem -benchtime 1x -run '^$$' .
	$(GO) test -bench 'BenchmarkKernelThroughput' -benchmem -benchtime 1x -run '^$$' ./internal/sim
	$(GO) test -bench 'BenchmarkKernelThroughputMesh/mesh=6x6' -benchmem -benchtime 1x -run '^$$' ./internal/system
	$(GO) test -bench 'BenchmarkKernelThroughputIdle/mesh=6x6' -benchmem -benchtime 1x -run '^$$' ./internal/traffic
	SCORPIO_SPEEDUP_GUARD=1 $(GO) test -run 'TestParallelSpeedupGuard$$' -v ./internal/system
	SCORPIO_IDLESKIP_GUARD=1 $(GO) test -run 'TestIdleSkipSpeedupGuard$$' -v ./internal/traffic
	@if [ -f $(BENCH_PREV) ] && [ -f $(BENCH_JSON) ]; then \
		echo "benchdiff $(BENCH_PREV) $(BENCH_JSON)"; \
		$(GO) run ./cmd/benchdiff $(BENCH_PREV) $(BENCH_JSON); \
	else \
		echo "benchsmoke: baseline diff skipped ($(BENCH_PREV) or $(BENCH_JSON) absent)"; \
	fi

# The engine self-observability smoke: a monitored run must emit a valid
# RunReport; benchdiff must pass a self-compare (exit 0) and catch a
# perturbed throughput figure (exit 1); the accounting bound (per-worker
# time sums within 5% of wall clock), the <=2% monitor-overhead guard, and
# the 0-allocs/step pins with the monitor attached must all hold.
perfsmoke: build
	$(GO) run ./cmd/scorpiosim -bench fft -work 60 -warmup 40 -perf-report /tmp/scorpio-perfsmoke.json > /dev/null
	$(GO) run ./cmd/benchdiff /tmp/scorpio-perfsmoke.json /tmp/scorpio-perfsmoke.json
	sed -E 's/"cycles_per_sec": [0-9.e+]+/"cycles_per_sec": 1.0/' \
		/tmp/scorpio-perfsmoke.json > /tmp/scorpio-perfsmoke-bad.json
	! $(GO) run ./cmd/benchdiff /tmp/scorpio-perfsmoke.json /tmp/scorpio-perfsmoke-bad.json
	$(GO) test -run 'TestPerfReportAccounting$$' -v ./internal/system
	SCORPIO_PERF_GUARD=1 $(GO) test -run 'TestPerfmonOverheadGuard$$' -v ./internal/system
	$(GO) test -run 'TestMeshSteadyStateAllocsPerfmon' -v ./internal/traffic

# The live-telemetry smoke: a real scorpiosim run serves telemetry on an
# ephemeral port; the script curls /healthz and /metrics (OpenMetrics shape),
# renders one scorpiotop frame over SSE, and proves shutdown released the
# port. Then the ≤2% no-client overhead guard and the 0-allocs/step pins with
# the publisher attached (serial and 4 workers) hold the exporter to the
# hot-path budget.
telemetrysmoke: build
	sh scripts/telemetrysmoke.sh
	SCORPIO_TELEMETRY_GUARD=1 $(GO) test -run 'TestTelemetryOverheadGuard$$' -v ./internal/system
	$(GO) test -run 'TestMeshSteadyStateAllocsTelemetry' -v ./internal/traffic

# The trace-format smoke: produce a lifecycle trace from a short 36-core run
# and validate it parses as Chrome trace-event JSON with at least one fully
# reconstructable transaction.
tracesmoke: build
	$(GO) run ./cmd/scorpiosim -bench barnes -work 50 -warmup 50 -trace /tmp/scorpio-tracesmoke.json > /dev/null
	$(GO) run ./cmd/traceq check /tmp/scorpio-tracesmoke.json

# The auditor smoke: short audited runs of the ordered machine and of a
# baseline must complete with zero violations (a violation aborts the run,
# so a nonzero exit fails the gate).
auditsmoke: build
	$(GO) run ./cmd/scorpiosim -bench barnes -work 50 -warmup 50 -audit | grep 'audit: ok'
	$(GO) run ./cmd/scorpiosim -protocol INSO -nodes 16 -bench fft -work 50 -warmup 50 -audit | grep 'audit: ok'
