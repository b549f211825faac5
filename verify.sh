#!/bin/sh
# verify.sh — the repo's tier-1 verification gate, runnable locally and in
# CI. Fails fast on the first broken stage.
#
#   ./verify.sh          full gate: gofmt, vet, build, bench build, import boundary, tests, alloc gates, race, simulation
#   ./verify.sh quick    skip the -race pass (slowest stage) for inner loops
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
test -z "$(gofmt -l . | tee /dev/stderr)"

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# bench/ is a module of its own, so ./... never compiles it: an API rename
# that breaks the benchmark must fail here, not after the PR.
echo "== bench module vet + build =="
(cd bench && go vet ./... && go build -o /dev/null ./...)

# No binary and no non-test package outside internal/sim/... links the
# model checker.
echo "== import boundary (nothing outside internal/sim links it) =="
if go list -deps ./cmd/rdxd ./cmd/rdxctl ./cmd/rdxbench . ./internal/experiments ./internal/controlha ./internal/shard ./internal/core ./internal/rdma | grep -x 'rdx/internal/sim'; then
    echo "verify: a non-test package depends on rdx/internal/sim" >&2
    exit 1
fi

echo "== go test =="
go test -timeout 120s ./...

# The allocs/op gates skip under -race (instrumentation allocates, sync.Pool
# drops items), so they get their own non-race run.
echo "== hot-path alloc gates =="
go test -count=1 -timeout 120s -run 'HotPathZeroAllocs$' ./internal/rdma/
go test -count=1 -run 'TestVerifySteadyStateAllocs$' ./internal/ebpf/verifier/

if [ "${1:-}" != "quick" ]; then
    echo "== go test -race =="
    go test -race -timeout 300s ./...
    # The in-process fabric link is hand-rolled synchronisation: its
    # conformance tests and the shared-QP poster tests repeat under -race.
    echo "== fabric link conformance (race, x10) =="
    go test -race -timeout 300s -count=10 -run 'TestLink|TestConcurrentWritersShareConn|TestWriteAcrossWritevBoundary' ./internal/rdma/
    # The journal's group commit is hand-rolled hand-off between appenders:
    # its deterministic group tests repeat under -race.
    echo "== journal group commit (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestFlight|TestTwoClosedLoopAppendersNeverGroup|TestJournalReadableDuringFlight' ./internal/controlha/
    # The standby folds the journal as it pumps: the background pump, a
    # takeover's final pump and State() snapshots share one host, and the
    # rollback-stack bound must hold on leader, replay and fold alike.
    echo "== hot standby fold + rollback bound (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestHostFold|TestTakeOverFlat|TestRollbackDepth' ./internal/controlha ./internal/core
fi

# The simregression build re-seeds three historical bugs (pre-rotation
# takeover fencing, the PR 8 refund-on-failure leak, unguarded resident
# chains) and asserts the model checker FINDS each and shrinks it to a short
# replayable trace. TestReplayByteIdentical carries no build tag, so replay
# determinism is checked here and in `go test` above. Sim scenarios drive one
# appender per journal, so every flight there is one entry and the corpus
# under internal/sim/testdata/schedules replays unchanged.
echo "== simulation regression (historical bugs must be found) =="
go test -tags simregression -timeout 120s ./internal/sim/...

echo "verify: all stages passed"
