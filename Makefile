# Development targets. `make tier1` is the gate every change must pass:
# build, vet, the core package under the race detector, and the full suite.

GO ?= go

.PHONY: tier1 build examples vet test race bench bench-baseline bench-check perfbench-test sweep conformance lint threadsvet explore fuzz

tier1: build examples vet race test conformance threadsvet

build:
	$(GO) build ./...

# examples must always compile (go build ./... covers them, but a separate
# target keeps the failure attributable when one rots).
examples:
	$(GO) build ./examples/...

vet:
	$(GO) vet ./...

# threadsvet runs the repo's own static usage-discipline analyzers
# (internal/analysis) over every package; see README "Static analysis".
THREADSVET_FLAGS ?=
threadsvet:
	$(GO) run ./cmd/threadsvet $(THREADSVET_FLAGS) ./...

race:
	$(GO) test -race ./internal/core/... ./internal/spinlock/...

test:
	$(GO) test ./...

# conformance replays linearization-point traces of the real runtime through
# the specification's state machine: the trace/core conformance tests under
# the race detector, then a larger un-instrumented replay via threadscheck.
conformance:
	$(GO) test -race -run 'TestRuntimeConformance|TestClaimRace|TestTraceStamp' ./internal/trace ./internal/core
	$(GO) run ./cmd/threadscheck -runtime -events 300000

# lint gates on formatting and static analysis: gofmt must report nothing,
# go vet and threadsvet must pass, and staticcheck runs when installed (CI
# and dev images without it still get the rest).
lint: threadsvet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped"; \
	fi

# explore is the CI-sized schedule-space sweep: every litmus program,
# all schedules with at most EXPLORE_K preemptions, hard wall-clock cap.
# Failing schedules are written to $(CERT_DIR) as replayable certificates.
# EXPLORE_POR toggles sleep-set reduction, EXPLORE_WORKERS sizes the
# parallel frontier, and a non-empty EXPLORE_STATECACHE names a directory
# of persistent fingerprint snapshots to resume from (the nightly job
# caches it across runs).
EXPLORE_K ?= 1
EXPLORE_BUDGET ?= 90s
EXPLORE_POR ?= sleepsets
EXPLORE_WORKERS ?= $(shell nproc 2>/dev/null || echo 2)
EXPLORE_STATECACHE ?=
CERT_DIR ?= certs
explore:
	$(GO) run ./cmd/threadsim -explore -maxk $(EXPLORE_K) -budget $(EXPLORE_BUDGET) \
		-por $(EXPLORE_POR) -workers $(EXPLORE_WORKERS) \
		$(if $(EXPLORE_STATECACHE),-statecache $(EXPLORE_STATECACHE)) -cert $(CERT_DIR)

# fuzz samples weighted-random schedules beyond the exhaustive bound.
FUZZ_RUNS ?= 2000
fuzz:
	$(GO) run ./cmd/threadsim -fuzz -runs $(FUZZ_RUNS) -cert $(CERT_DIR)

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-baseline regenerates the committed regression baseline — the
# scalar metrics and the scaling curves together, through the sweep matrix
# runner; run it only when a change intentionally moves a metric or a
# curve, and commit the new file.
bench-baseline:
	bench/sweep.sh -json BENCH_1.json

# bench-check compares the current build against the committed baseline on
# the machine-independent metrics (add -timed manually for same-machine
# wall-clock comparisons).
bench-check:
	$(GO) run ./cmd/threadsbench -baseline BENCH_1.json

# perfbench-test runs the end-to-end benchmark's own tests: its checker
# self-tests and the Stats counter invariants its ledger relies on
# (SignalWoke <= SignalNub among them). perfbench is a module of its own,
# so `go test ./...` at the root does not reach it.
perfbench-test:
	cd perfbench && $(GO) test .

# sweep runs the core-count scaling sweep (E11–E13 across GOMAXPROCS) and
# enforces the committed curves' shape; bench/sweep.sh is the matrix runner
# with pinning and environment control. SWEEP_FLAGS adds e.g. -timed for
# same-machine comparisons or -cores/-samples overrides.
SWEEP_FLAGS ?=
sweep:
	$(GO) run ./cmd/threadsbench -sweep -baseline BENCH_1.json $(SWEEP_FLAGS)
