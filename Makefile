GO ?= go

.PHONY: build test test-short lint vet-lint fmt perfbench layerbench faultfig

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The repo's determinism/hot-path contract checker (internal/analysis);
# see the "Determinism contract" section of ARCHITECTURE.md. -stats also
# inventories every //finemoe: directive and fails on stale suppressions.
lint:
	$(GO) run ./cmd/finemoe-lint -stats ./...

# Same analyzers driven through cmd/go's vet cache (incremental re-runs).
vet-lint:
	$(GO) build -o $(CURDIR)/bin/finemoe-lint ./cmd/finemoe-lint
	$(GO) vet -vettool=$(CURDIR)/bin/finemoe-lint ./...

fmt:
	gofmt -w .

# The committed perf ledger: two tools' own output, regenerated together
# on one host (host speed moves in phases, so a before/after pair is only
# comparable when made close together).
#
# BENCH_perf.txt is the gated end-to-end benchmark (perfbench/README.md)
# on each workload at seed 1: the Go version, NumCPU and GOMAXPROCS line,
# every repeat with its result digest, and the JSON metrics line.
perfbench:
	for w in fleet-tiny-mmpp paper-mixtral-warm fleet-sessions-faults; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done > BENCH_perf.txt

# BENCH_layers.txt is the per-layer microbenchmarks' -benchmem output in
# benchstat format: expert-map search, trajectory cursor and Store.Add
# dedup (core), the Mixtral gate trace (moe), the engine step (serve) and
# the shared-clock loop (cluster).
layerbench:
	$(GO) test -run '^$$' -benchmem -count 5 \
		-bench '^Benchmark(SemanticSearch|CursorObserve|NewCursor|StoreAdd|DecodeIterationMixtral|EngineOnline|ClusterLoopSerial)' \
		./internal/core ./internal/moe ./internal/serve ./internal/cluster > BENCH_layers.txt

# The fault gauntlet at small scale: crash/brownout/stall scenarios with
# resilience off vs on (see internal/experiments/faults.go).
faultfig:
	$(GO) run ./cmd/finemoe-bench -exp faultfig -scale small
