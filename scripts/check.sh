#!/bin/sh
# check.sh — the repository's single CI entry point. Every gate below
# must pass before merging; `make check` runs this script.
#
#   1. gofmt       formatting is canonical
#   2. go vet      the stock static checks
#   3. go build    everything compiles
#   4. go test     the full suite (fuzz seeds included) under the race
#                  detector
#   5. allocs      the steady-state zero-allocation regression (runs
#                  without the race detector, whose instrumentation
#                  allocates; the -race pass above skips it)
#   6. protolint   the module's own analyzers: exhaustive switches,
#                  determinism, protocol table audit, phase ownership
#                  (phaseaudit), hot-path allocation freedom (allocaudit)
#                  and sync hygiene (syncaudit). Runs after the build/test
#                  gates because it type-checks the same tree those gates
#                  just proved compiles — a type error here would exit 2
#                  (tool/load failure) rather than 1 (findings), and we
#                  want that distinction to mean something.
#   7. modelcheck  a bounded run of the Section 4 product-machine proof
#                  over every protocol (n=3 caches keeps it seconds)
#   8. sweep       a bounded smoke of the orchestration engine: parallel
#                  output must be byte-identical to serial and a warm
#                  cache must execute zero jobs
#   9. batch       a bounded smoke of the S26 batched execution path: a
#                  2-shape x 3-seed sweep run fused (same-shape jobs on
#                  generation-reset machines) must produce reports, a
#                  journal, and store envelopes byte-identical to the
#                  unbatched fresh-machine-per-job run
#  10. faults      a bounded smoke of the S23 fault campaign: the report
#                  must be byte-identical between -j1, -j4, and the
#                  batched (arena-recycled) runner, and no detectable
#                  fault class may produce a silent divergence
#  11. serve       a bounded smoke of the S24 service daemon: boot on a
#                  loopback port, run an experiment over HTTP, verify the
#                  identical resubmission is a pure cache hit, and drain
#  12. router      a bounded smoke of the S25 cluster tier: in-process
#                  router + 2 workers; verifies sharded routing,
#                  cross-worker coalescing, a rebalancer-triggered
#                  replica read, and 503 + Retry-After with the fleet
#                  down
#  13. chaos      a bounded smoke of the S27 chaos layer: router + 2
#                  workers under two seeded fault classes (conn-refuse,
#                  truncate); the client contract must hold, every
#                  completed result must be byte-identical to the
#                  fault-free single-node oracle, faults must actually
#                  fire, and the matrix must be byte-identical across
#                  -j1, -j2, and a same-seed rerun
#  14. profile    a bounded smoke of the online miss-ratio profiler: a
#                  tier-1 scenario is recorded, replayed as a trace
#                  workload (metrics must be identical to the original
#                  run, curves byte-identical), and the online curves
#                  are cross-validated byte-for-byte against the offline
#                  stack algorithm over the recorded reference streams
#  15. perfbench  the benchmark harness's own tests (a separate module
#                  that `go test ./...` never reaches): metric tables
#                  agree with BENCHMARK.json, and the workloads are
#                  deterministic and self-checking
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt: the following files are not canonically formatted:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> allocs/cycle regression"
go test -run TestSteadyStateAllocFree -count=1 ./internal/perf/

echo "==> protolint ./..."
go run ./cmd/protolint ./...

echo "==> modelcheck -all -n 3"
go run ./cmd/modelcheck -all -n 3

echo "==> sweep -smoke"
go run ./cmd/sweep -smoke

echo "==> sweep -batch-smoke"
go run ./cmd/sweep -batch-smoke

echo "==> faultcampaign -smoke"
go run ./cmd/faultcampaign -smoke

echo "==> mimdserved -smoke"
go run ./cmd/mimdserved -smoke

echo "==> mimdrouter -smoke"
go run ./cmd/mimdrouter -smoke

echo "==> chaoscampaign -smoke"
go run ./cmd/chaoscampaign -smoke

echo "==> mimdsim -profile-smoke"
go run ./cmd/mimdsim -profile-smoke

echo "==> perfbench go test"
(cd perfbench && go test .)

echo "==> all checks passed"
