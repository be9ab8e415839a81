# Build and test gates for the Northup reproduction.
#
#   make check        tier-1 gate: build + full test suite, plus vet and tests
#                     of the benchmark module (the CI floor)
#   make strict       tier-2 gate: lint + race tests + fuzz + demos + examples
#   make lint         gofmt -l (fail on unformatted files) + go vet
#   make fuzz         run every fuzz target for FUZZTIME (default 10s) each
#   make ops-demo     live admin-plane smoke: burn-rate scenario over HTTP
#   make tail-demo    per-job journey smoke: tail analyzer + exemplars +
#                     journey-lane trace validation on the burn-rate workload
#   make examples     run every example program, then multi-branch HotSpot
#                     on the committed asymmetric spec through northup-run
#   make bench-json   benchmark artifacts -> BENCH_cache.json,
#                     BENCH_stream.json, BENCH_serve.json,
#                     BENCH_affinity.json, BENCH_perf.json
#   make bench-stream streamed-transfer overlap sweep -> BENCH_stream.json
#   make bench-serve  multi-tenant saturation sweep -> BENCH_serve.json
#   make bench-affinity  data-affinity scheduler A/B -> BENCH_affinity.json
#   make bench-sim    DES-engine dispatch microbenchmarks (ns/event + allocs),
#                     the streamed-move pump's (ns and allocs per stream),
#                     the blocking move's (ns and allocs per move, for
#                     each of its four shapes),
#                     affinity placement's (ns per pick on a 32x32 and a
#                     64x64 grid) and the functional kernels' (HotSpot tile,
#                     GEMM launch, SpMV blocks) at -cpu 1,2
#   make bench-check  committed-artifact gate: regenerate the paper-scale perf
#                     profile and sweeps (race detector on) and require the
#                     committed BENCH_*.json bytes
#   make identity OUT=dir  write the CLI outputs a byte-identity claim rests
#                     on into dir; `diff -r` two checkouts' dirs to check it
#   make all          both gates plus the benchmark artifacts

GO ?= go
FUZZTIME ?= 10s
OUT ?= identity-out

.PHONY: all build test benchmod vet race lint fuzz check strict bench bench-json bench-stream bench-serve bench-affinity bench-sim bench-check identity trace-demo serve-demo ops-demo tail-demo examples clean

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

# The GPU launch runs a kernel's workgroups on several goroutines, so its
# tests also run repeatedly under the detector.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestLaunchRuns|TestLaunchPanic' ./internal/gpu/

# Each fuzz target on its own (go test fuzzes one target per run), for
# FUZZTIME each.
fuzz:
	$(GO) test ./northup -run '^$$' -fuzz '^FuzzParseFaults$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzScenarioRun$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/taskgraph -run '^$$' -fuzz '^FuzzGraphAdd$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/taskgraph -run '^$$' -fuzz '^FuzzAffinityPickMatchesRescan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/topo -run '^$$' -fuzz '^FuzzBuildSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzFileHash$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzChromeTrace$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzTokensMatchChan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEventQueueMatchesHeap$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzSparseMatchesRand$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/journey -run '^$$' -fuzz '^FuzzJourneySegments$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMoveRanges$$' -fuzztime $(FUZZTIME)

# The benchmark harness is its own module (benchmark/go.mod), so the root
# `go test ./...` skips it, yet it compiles against the runtime's public
# surface: vet and test it too.
benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Tier-1: what every change must keep green.
check: build test benchmod

# Tier-2: static analysis, the race detector, the fuzz targets, the
# end-to-end demos and the example programs. `race` runs bench-check's test
# under the detector too.
strict: lint race fuzz trace-demo serve-demo ops-demo tail-demo examples

# Example smoke: every program under examples/ runs to completion (each
# exits non-zero when its run fails), then HotSpot spreads its chunks over
# both staging branches of the committed asymmetric spec, with the blocking
# derived so that each branch gets at least one chunk.
examples:
	sh -c 'set -e; for ex in examples/*/; do $(GO) run ./$$ex > /dev/null; done'
	$(GO) run ./cmd/northup-run -spec specs/asymmetric.json -app hotspot > /dev/null

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
# sweeps, and the paper-scale perf profile. All but BENCH_cache.json
# (gitignored) are committed, and TestCommittedSweepsRegenerate requires
# the other four byte for byte; regenerate after intentional model changes.
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
# counts, the streamed move, the blocking move in each shape (1-D file to
# DRAM and DRAM to GPU, strided 2-D, transposing), affinity placement on
# two grid sizes (its cost per pick should barely grow with the ready
# set), then the functional kernels at one and two CPUs (a launch spreads
# its workgroups over GOMAXPROCS goroutines). Wall-clock numbers stay out
# of the committed artifacts, which record each run's deterministic event,
# callback and process counts.
bench-sim:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim/
	$(GO) test -bench='StreamedMove|BlockingMove' -benchmem -run=^$$ ./internal/core/
	$(GO) test -bench=AffinityPick -benchmem -run=^$$ ./internal/taskgraph/
	$(GO) test -bench=StencilStepFunctional -benchmem -cpu 1,2 -run=^$$ ./internal/apps/hotspot/
	$(GO) test -bench=TileKernelFunctional -benchmem -cpu 1,2 -run=^$$ ./internal/apps/gemm/
	$(GO) test -bench=ExecBlocksFunctional -benchmem -cpu 1,2 -run=^$$ ./internal/apps/spmv/

# Committed-artifact gate: regenerate BENCH_perf.json and the three sweeps
# under the race detector and require the committed bytes. Every value is
# virtual time or a deterministic count, so any moved value fails, and the
# failure names each entry and metric that moved.
bench-check:
	$(GO) test -race -count=1 -run '^TestCommittedSweepsRegenerate$$' ./internal/figures

# Byte-identity outputs: build the CLIs, then write under OUT the outputs
# that a "this change moves no number" claim rests on. Each northup-run
# entry (directory name, then arguments) writes stdout, a Chrome trace and
# the metrics registry as JSON and Prometheus text; every committed serve
# scenario writes its JSON report, records, metrics, journeys, trace,
# alerts and windows; and every figure is printed as CSV. Each run starts
# in its own directory with relative output paths, so the paths a CLI
# echoes match across checkouts. Run it on two checkouts and compare with
# `diff -r parent-dir change-dir`. Not part of `make check`.
identity:
	sh -c 'set -e; \
	  mkdir -p "$(OUT)"; out=$$(cd "$(OUT)" && pwd); \
	  bin=$$(mktemp -d); trap "rm -rf $$bin" EXIT; \
	  for c in northup-run northup-serve northup-bench; do $(GO) build -o $$bin/$$c ./cmd/$$c; done; \
	  run() { \
	    dir=$$out/run/$$1; shift; mkdir -p $$dir; \
	    (cd $$dir && $$bin/northup-run "$$@" -metrics -trace-out t.json \
	      -metrics-out m.json -metrics-prom m.prom > out.txt 2>&1); \
	  }; \
	  run gemm -app gemm -n 512 -chunk 128; \
	  run hotspot -app hotspot -n 512 -chunk 128; \
	  run spmv -app spmv -n 65536 -iters 2; \
	  run steal -app hotspot -n 512 -steal; \
	  run steal-offline -app hotspot -n 256 -steal -faults seed=7,offline=1/gpu:0:2; \
	  run affinity -app gemm -n 512 -chunk 128 -phantom -cache -affinity on; \
	  run streamed -app hotspot -n 256 -preset discrete -streamed; \
	  run cache-prefetch -app spmv -n 65536 -iters 4 -cache -prefetch; \
	  run faults -app gemm -n 256 -faults seed=42,rate=0.05; \
	  run gemm-discrete-faults -app gemm -n 512 -chunk 128 -preset discrete -faults seed=42,rate=0.05; \
	  run steal-sampled -app hotspot -n 2048 -steal -phantom -sample-tick-ms 1; \
	  run affinity-sampled -app gemm -n 1024 -chunk 128 -phantom -cache -affinity on -sample-tick-ms 1; \
	  run cache-saturated -app spmv -n 262144 -iters 3 -cache -cache-share 1 -affinity on; \
	  run cache-saturated-discrete -app spmv -n 1048576 -iters 3 -phantom -cache -cache-share 1 -prefetch -preset discrete; \
	  run gemm-inmemory -app gemm -n 512 -preset inmemory; \
	  run hotspot-inmemory -app hotspot -n 512 -preset inmemory; \
	  run spmv-inmemory -app spmv -n 65536 -preset inmemory; \
	  run spmv-discrete -app spmv -n 65536 -iters 2 -preset discrete; \
	  run hotspot-asymmetric -app hotspot -spec $(CURDIR)/specs/asymmetric.json; \
	  for sc in specs/scenarios/*; do \
	    dir=$$out/serve/$$(basename $$sc); mkdir -p $$dir; \
	    (cd $$dir && $$bin/northup-serve -scenario $(CURDIR)/$$sc -journeys -format json \
	      -records r.json -metrics m.prom -journeys-out j.json -trace-out t.json \
	      -alerts a.json -windows w.json > report.json); \
	  done; \
	  $$bin/northup-bench -fig all -format csv > $$out/figures.csv'

clean:
	$(GO) clean ./...
	rm -rf identity-out
	rm -f BENCH_cache.json trace-demo.json serve-demo-serve serve-demo-a.json serve-demo-b.json serve-demo-a.records serve-demo-b.records ops-demo-serve ops-demo-alerts.json tail-demo-serve tail-demo-trace tail-demo.trace.json tail-demo-alerts.json tail-demo-tail.txt
