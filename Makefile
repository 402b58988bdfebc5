# Makefile — thin entry points over the go tool; `make check` is the CI
# gate (see scripts/check.sh for the individual stages).

GO ?= go

.PHONY: check build test race lint fuzz modelcheck fault bench serve cluster chaos profile fmt

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs every repo-local analyzer (exhaustive, determinism,
# tableaudit, phaseaudit, allocaudit, syncaudit). Exit 0 = clean,
# 1 = findings, 2 = the tool itself failed to load/type-check a package.
lint:
	$(GO) run ./cmd/protolint ./...

# fuzz runs the protocol-step fuzzer for a bounded minute; CI runs only
# the checked-in seeds (via `make test`).
fuzz:
	$(GO) test ./internal/coherence -run FuzzProtocolStep -fuzz FuzzProtocolStep -fuzztime 60s

modelcheck:
	$(GO) run ./cmd/modelcheck -all -n 3

# fault runs the default S23 fault-injection campaign and prints the
# per-protocol resilience matrix; `faultcampaign -smoke` is the CI gate.
fault:
	$(GO) run ./cmd/faultcampaign

# bench runs the repository benchmark (perfbench, declared in
# BENCHMARK.json) once per workload: the saturated 64-PE cycle loop, the
# cold sweep engine, and the router-plus-workers request path. Each run
# prints one JSON document of end-to-end and per-layer metrics.
bench:
	python3 perfbench/run.py --workload core-64pe
	python3 perfbench/run.py --workload sweep-seeds
	python3 perfbench/run.py --workload serve-mix

# serve runs the S24 simulation-as-a-service daemon on its default
# loopback port with an on-disk result store.
serve:
	$(GO) run ./cmd/mimdserved -cache-dir .servecache

# cluster runs the S25 tier self-contained: a router on its default port
# with three in-process workers. Point curl at it.
cluster:
	$(GO) run ./cmd/mimdrouter -spawn 3

# chaos runs the S27 chaos campaign over every fault class at every
# intensity and prints the masked/degraded/failed matrix;
# `chaoscampaign -smoke` is the CI gate.
chaos:
	$(GO) run ./cmd/chaoscampaign -intensities low,default,high

# profile runs the online miss-ratio-curve profiler self-check: record a
# tier-1 scenario, replay it as a trace workload, and cross-validate the
# online curves byte-for-byte against the offline stack algorithm.
profile:
	$(GO) run ./cmd/mimdsim -profile-smoke

fmt:
	gofmt -w .
