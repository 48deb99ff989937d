GO ?= go

.PHONY: build test test-short lint vet-lint fmt clusterbench faultfig

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

# Regenerate the committed cluster-loop baseline: a 32-instance
# 1M-request bursty workload through the shared-clock loop, once as a
# materialized trace and once streamed, byte-parity checked, with
# wall-clock and memory columns (peak heap, GC cycles, allocs/request) —
# plus the 10M-request streaming-only horizon run.
clusterbench:
	$(GO) run ./cmd/finemoe-bench -clusterbench BENCH_cluster.json -clusterbench-horizon 10000000

# The fault gauntlet at small scale: crash/brownout/stall scenarios with
# resilience off vs on (see internal/experiments/faults.go).
faultfig:
	$(GO) run ./cmd/finemoe-bench -exp faultfig -scale small
