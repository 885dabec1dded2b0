# Development targets for ctxres. `make` (or `make check`) is the default
# gate: gofmt + vet + build + full test suite + race-mode run of the
# packages with real concurrency (the parallel checker and the middleware
# around it).

GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 30s
SOAKTIME ?= 3m

.DEFAULT_GOAL := check

.PHONY: check fmt build test race bench bench-smoke vet cover fuzz-smoke smoke soak

check: fmt vet build test race

# fmt fails when any tracked .go file is not gofmt-formatted.
fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/constraint ./internal/middleware ./internal/pool ./internal/wal ./internal/daemon/... ./internal/cluster ./internal/metrics ./internal/telemetry ./internal/health ./internal/soak ./internal/testutil/leakcheck

# soak runs the chaos storms in internal/soak for SOAKTIME (default 3m)
# under the race detector: overload bursts, a flapping corrupted source,
# poisoned checks, and transport chaos against a live daemon (TestSoakStorm),
# a push-delivery storm with flapping slow subscribers
# (TestSoakSubscriberStorm), and the leader-kill gauntlet
# (TestSoakFailoverGauntlet): storm a replicated leader, kill it
# mid-storm, promote the follower with an epoch bump, and assert no
# acked write is lost while a resurrected stale leader sheds every
# write with the typed stale-leader code. All legs assert typed
# shedding, breaker trip + half-open recovery, bounded memory, and no
# goroutine leaks. CI runs this nightly.
soak:
	CTXRES_SOAK=$(SOAKTIME) $(GO) test -race -v -run 'TestSoak' -timeout 30m ./internal/soak

# bench regenerates BENCH_9.json, the machine-readable perf trajectory:
# Figure 9/10 wall-clock, telemetry and distributed-tracing overhead on
# the same workloads, the daemon's per-stage latency histograms after a
# real TCP run, and the open-loop wire/commit load generator (both wire
# formats, batch sizes, and group commit, all at fsync=always).
# scripts/benchcheck -full enforces the report schema, the 2x
# group-commit speedup floor, and the <5% tracing-overhead ceiling.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .
	$(GO) run ./cmd/ctxbench -perf BENCH_9.json -groups 2
	$(GO) run ./scripts/benchcheck -full BENCH_9.json

# bench-smoke is the CI-sized slice of `make bench`: the load generator
# runs for well under a minute across both wire formats, and benchcheck
# validates the report schema (throughput and latency fields present and
# plausible) without the slow figure phases or the speedup floor.
bench-smoke:
	$(GO) run ./cmd/ctxbench -perf BENCH_smoke.json -loadgen-only -loadgen-dur 600ms
	$(GO) run ./scripts/benchcheck BENCH_smoke.json
	rm -f BENCH_smoke.json

# smoke boots real ctxmwd processes: /metrics scrape, pushed
# subscription, router round-trip, leader kill-and-promote, a
# self-fenced stale leader, and a router failover across a replica set.
smoke:
	./scripts/smoke.sh

vet:
	$(GO) vet ./...

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Short deterministic-budget fuzz pass over every fuzz target: the
# constraint parser/evaluator (and the evaluator against its eager
# reference), the WAL frame and segment scanners, the
# trace reader shared with `ctxwal dump`, and the daemon's binary wire
# framing and batch-submit decode paths.
fuzz-smoke:
	$(GO) test ./internal/constraint -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/constraint -run='^$$' -fuzz=FuzzLoadConstraints -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/constraint -run='^$$' -fuzz=FuzzDifferentialParallel -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/constraint -run='^$$' -fuzz=FuzzDifferentialReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz=FuzzRecordRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz=FuzzSegmentScan -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzTraceRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/daemon -run='^$$' -fuzz=FuzzBinaryFrameRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/daemon -run='^$$' -fuzz=FuzzBinaryFrameRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/daemon -run='^$$' -fuzz=FuzzBatchSubmitDecode -fuzztime=$(FUZZTIME)
