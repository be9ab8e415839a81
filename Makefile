# Build and test gates for the Northup reproduction.
#
#   make check        tier-1 gate: build + full test suite, plus vet and tests
#                     of the benchmark module (the CI floor)
#   make strict       tier-2 gate: lint + race tests + fuzz + demos + perf gate
#   make lint         gofmt -l (fail on unformatted files) + go vet
#   make fuzz         run every fuzz target for FUZZTIME (default 10s) each
#   make ops-demo     live admin-plane smoke: burn-rate scenario over HTTP
#   make tail-demo    per-job journey smoke: tail analyzer + exemplars +
#                     journey-lane trace validation on the burn-rate workload
#   make bench-json   benchmark artifacts -> BENCH_cache.json,
#                     BENCH_stream.json, BENCH_serve.json,
#                     BENCH_affinity.json, BENCH_perf.json
#   make bench-stream streamed-transfer overlap sweep -> BENCH_stream.json
#   make bench-serve  multi-tenant saturation sweep -> BENCH_serve.json
#   make bench-affinity  data-affinity scheduler A/B -> BENCH_affinity.json
#   make bench-sim    DES-engine dispatch microbenchmarks (ns/event + allocs)
#   make bench-check  perf-regression gate: re-run the perf suite (race
#                     detector on) and diff against the committed BENCH_perf.json
#   make all          both gates plus the benchmark artifacts

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test benchmod vet race lint fuzz check strict bench bench-json bench-stream bench-serve bench-affinity bench-sim bench-check trace-demo serve-demo ops-demo tail-demo clean

all: check strict bench-json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static hygiene: every file gofmt-clean, then go vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Each fuzz target on its own (go test fuzzes one target per run), for
# FUZZTIME each.
fuzz:
	$(GO) test ./northup -run '^$$' -fuzz '^FuzzParseFaults$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/taskgraph -run '^$$' -fuzz '^FuzzGraphAdd$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzFileHash$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzChromeTrace$$' -fuzztime $(FUZZTIME)

# The benchmark harness is its own module (benchmark/go.mod), so the root
# `go test ./...` skips it, yet it compiles against the runtime's public
# surface: vet and test it too.
benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Tier-1: what every change must keep green.
check: build test benchmod

# Tier-2: static analysis, the race detector, the fuzz targets, the
# end-to-end demos, and the perf-regression gate.
strict: lint race fuzz trace-demo serve-demo ops-demo tail-demo bench-check

# End-to-end tracing smoke: capture a small traced run, then require the
# exported Chrome trace to validate through the offline analyser.
trace-demo:
	$(GO) run ./cmd/northup-run -app gemm -n 256 -chunk 128 \
		-trace-out trace-demo.json -metrics > /dev/null
	$(GO) run ./cmd/northup-trace -validate trace-demo.json
	$(GO) run ./cmd/northup-trace trace-demo.json > /dev/null
	rm -f trace-demo.json

# Multi-tenant serving smoke: run every committed scenario twice through
# the CLI (phantom mode) and require byte-identical reports and job records
# on the rerun — the DSL's same-seed promise — then the same for the
# functional two-tenant run, the one CLI path that hashes stored bytes.
serve-demo:
	$(GO) build -o serve-demo-serve ./cmd/northup-serve
	sh -c 'set -e; \
	  rerun() { \
	    for run in a b; do \
	      ./serve-demo-serve "$$@" -format json -records serve-demo-$$run.records \
	        > serve-demo-$$run.json; \
	    done; \
	    cmp serve-demo-a.json serve-demo-b.json; \
	    cmp serve-demo-a.records serve-demo-b.records; \
	  }; \
	  for sc in specs/scenarios/*; do rerun -scenario $$sc; done; \
	  rerun -scenario specs/scenarios/two-tenant.yaml -functional'
	rm -f serve-demo-serve serve-demo-a.json serve-demo-b.json \
		serve-demo-a.records serve-demo-b.records

# Live admin-plane smoke: run the burn-rate scenario with the HTTP plane
# up (flat out, lingering after completion), poll /healthz until the run
# reports done, then require the fast-burn alert in the /alerts timeline,
# the bursty tenant in /tenants, and the alert gauges in /metrics.
ops-demo:
	$(GO) build -o ops-demo-serve ./cmd/northup-serve
	sh -c ' \
	  ./ops-demo-serve -scenario specs/scenarios/burn-rate.yaml \
	    -http 127.0.0.1:9974 -linger 60s > /dev/null & \
	  pid=$$!; trap "kill $$pid 2>/dev/null" EXIT; \
	  for i in $$(seq 1 120); do \
	    curl -sf http://127.0.0.1:9974/healthz 2>/dev/null \
	      | grep -q "\"status\": \"done\"" && break; \
	    sleep 1; \
	  done; \
	  curl -sf http://127.0.0.1:9974/healthz | grep -q "\"status\": \"done\"" && \
	  curl -sf http://127.0.0.1:9974/alerts > ops-demo-alerts.json && \
	  grep -q bursty-fast-burn ops-demo-alerts.json && \
	  grep -q "\"state\": \"firing\"" ops-demo-alerts.json && \
	  curl -sf http://127.0.0.1:9974/tenants | grep -q "\"name\": \"bursty\"" && \
	  curl -sf http://127.0.0.1:9974/metrics | grep -q northup_alert_firing'
	rm -f ops-demo-serve ops-demo-alerts.json

# Per-job journey smoke: run the burn-rate workload with journeys on and
# require (1) the tail analyzer to name the staging hop as the bursty
# tenant's dominant p99 phase, (2) the firing page alert to carry exemplar
# trace IDs, and (3) the exported trace — including the per-job journey
# lanes — to validate through the offline analyser, with a waterfall
# renderable for an exemplar job.
tail-demo:
	$(GO) build -o tail-demo-serve ./cmd/northup-serve
	$(GO) build -o tail-demo-trace ./cmd/northup-trace
	./tail-demo-serve -scenario specs/scenarios/burn-rate.yaml -journeys \
		-tail -trace-out tail-demo.trace.json -alerts tail-demo-alerts.json \
		> tail-demo-tail.txt
	grep -A2 "tenant bursty:" tail-demo-tail.txt | grep -q "stage:node0/io"
	grep -q '"severity": "page"' tail-demo-alerts.json
	grep -q '"trace_id"' tail-demo-alerts.json
	./tail-demo-trace -validate tail-demo.trace.json
	sh -c 'id=$$(grep -o "\"trace_id\": \"[0-9a-f]*\"" tail-demo-alerts.json \
	  | head -1 | cut -d\" -f4); \
	  ./tail-demo-trace -job $$id tail-demo.trace.json | grep -q "phase totals:"'
	rm -f tail-demo-serve tail-demo-trace tail-demo.trace.json \
		tail-demo-alerts.json tail-demo-tail.txt

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Machine-readable artifacts: the staging-cache sweep (name, virtual time,
# speedup, hit rate per capacity point) plus the matching -benchtime=1x
# ablation run, the streamed-transfer overlap, saturation and affinity
# sweeps, and the paper-scale perf baseline the regression gate diffs
# against. All but BENCH_cache.json (gitignored) are committed, and
# TestCommittedSweepsRegenerate reads the three sweeps; regenerate after
# intentional model changes.
bench-json: bench-stream bench-serve bench-affinity
	$(GO) run ./cmd/northup-bench -fig cache -format json > BENCH_cache.json
	$(GO) test -bench=BenchmarkAblationShardCache -benchtime=1x -run=^$$ .
	$(GO) run ./cmd/northup-bench -baseline BENCH_perf.json

# Streamed-transfer overlap sweep: speedup vs sub-chunk count for the
# paper-shaped GEMM shard pipelined storage -> DRAM -> GPU memory.
bench-stream:
	$(GO) run ./cmd/northup-bench -fig stream -format json > BENCH_stream.json

# Multi-tenant saturation sweep: offered load vs admitted/rejected/completed
# and worst-tenant latency percentiles across rate multipliers.
bench-serve:
	$(GO) run ./cmd/northup-bench -fig serve -format json > BENCH_serve.json

# Data-affinity scheduler A/B: GEMM and SpMV task graphs under locality-blind
# stealing vs residency-aware placement, with the per-app moved-bytes
# reduction the ablation claims.
bench-affinity:
	$(GO) run ./cmd/northup-bench -fig affinity -format json > BENCH_affinity.json

# DES-engine microbenchmarks: per-event cost of both dispatch paths (proc
# resumption vs inline callback vs same-instant fan-out) with allocation
# counts; the committed floors in BENCH_perf.json come from the same
# workload shapes via `northup-bench -baseline`.
bench-sim:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim/

# Perf-regression gate: re-run the paper-scale perf suite under the race
# detector and diff every metric against the committed baseline with
# per-metric tolerances; a ≥5% drift (either direction) fails the build.
bench-check:
	$(GO) run -race ./cmd/northup-bench -check BENCH_perf.json

clean:
	$(GO) clean ./...
	rm -f BENCH_cache.json trace-demo.json serve-demo-serve serve-demo-a.json serve-demo-b.json serve-demo-a.records serve-demo-b.records ops-demo-serve ops-demo-alerts.json tail-demo-serve tail-demo-trace tail-demo.trace.json tail-demo-alerts.json tail-demo-tail.txt
