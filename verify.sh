#!/bin/sh
# verify.sh — the repo's tier-1 verification gate, runnable locally and in
# CI. Fails fast on the first broken stage.
#
#   ./verify.sh          full gate: gofmt, vet, build, bench build, import boundary, export ratchet, tests, alloc gates, race, journal codec fuzz, code region, simulation
#   ./verify.sh quick    skip the -race passes and the fuzz smoke for inner loops
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

# Exported identifiers that only _test.go files use: the count may only go
# down, and every allowlisted one says why it stays.
echo "== exported code only tests call (ratchet) =="
go test -count=1 -run TestExportsOnlyTestsUse .

echo "== go test =="
go test -timeout 120s ./...

# The allocs/op gates skip under -race (instrumentation allocates, and the
# sync.Pool of pendingVerb entries drops items), so they get their own
# non-race run.
echo "== hot-path alloc gates =="
go test -count=1 -timeout 120s -run 'HotPathZeroAllocs$' ./internal/rdma/
go test -count=1 -run 'TestVerifySteadyStateAllocs$' ./internal/ebpf/verifier/
go test -count=1 -run 'TestResidentRepublishAckAllocs$' ./internal/controlha/

if [ "${1:-}" != "quick" ]; then
    echo "== go test -race =="
    go test -race -timeout 300s ./...
    # The in-process fabric link is hand-rolled synchronisation: its
    # conformance tests, the shared-QP poster tests, the per-connection
    # buffer tests, the endpoint's one-frame serve loop (malformed and
    # pipelined frames, drain, pipelined and concurrent QPs) and the
    # modeled-latency contract (completion at the due time, effect placed
    # before it, none delivered under a context that expired before the
    # post) repeat under -race.
    echo "== fabric link conformance (race, x10) =="
    go test -race -timeout 300s -count=10 -run 'TestLink|TestConcurrentWritersShareConn|TestWriteSizesAcrossScratchKeep|TestReadDataOutlivesReadBuffer|TestMalformedFrameTearsDownConnection|TestDrainLosesNoCompletion|TestPipelinedAsyncWrites|TestConcurrentQPs|TestModeledLatency|TestWritePlacedBeforeCompletion|TestExpiredContextDropsQueuedCompletion' ./internal/rdma/
    # The journal's group commit is hand-rolled hand-off between appenders:
    # its deterministic group tests repeat under -race. Write-only entries
    # (validate, compile) do not wait: they join the open batch or ride the
    # next flight a waiting append opens, and that carry repeats here too.
    # The flight tests size their batches from the entry encoding, whose
    # round trip (FuzzEntryRoundTrip's seeds: every string form's edges,
    # and a payload the journal refuses) runs with them, as do the name
    # bound that keeps every publish's entry foldable and the entry at it.
    # A fleet job waits on journal acks once per phase: its three flights
    # per job, a takeover at its claim barrier and before its publish
    # flight, and an aborted job's claims repeat here too, as do the
    # JournalSink methods, each one Journal call that waits on its ack
    # (stage, publish, rollback, claim) or is carried (validate, compile).
    echo "== journal group commit + name bound + fleet job flights (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestFlight|TestFlightCarriesWriteOnlyEntries|TestTwoClosedLoopAppendersNeverGroup|TestJournalReadableDuringFlight|TestColdInjectIsOneStandbyFlight|FuzzEntryRoundTrip|TestLongNameRefusedBeforeAnyVerb|TestEntryAtNameLimitRoundTrips|TestFleetJobJournalsInThreeFlights|TestTakeOverAtClaimBarrier|TestTakeOverBeforePublishFlight|TestAbortedJobKeepsClaimsTombstoned|TestSinkMethodsWaitForTheStandby' ./internal/controlha/
    # The entry codec packs integers, digests and node keys: a short fuzz
    # of its round trip and of replay over arbitrary bytes (typed errors,
    # never a panic) runs on every full gate.
    echo "== journal codec fuzz smoke (10 s each) =="
    go test -run '^$' -fuzz '^FuzzEntryRoundTrip$' -fuzztime=10s ./internal/controlha/
    go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime=10s ./internal/controlha/
    # The standby folds the journal as it pumps: the background pump, a
    # takeover's final pump and State() snapshots share one host, and the
    # rollback-stack bound must hold on leader, replay and fold alike. Every
    # term start (AttachLeader included) claims the lease before it fences,
    # then replays and continues the ring's sequence.
    echo "== hot standby fold + term start + rollback bound (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestHostFold|TestTakeOverFlat|TestRollbackDepth|TestAttach' ./internal/controlha ./internal/core
    # Every publish path commits through one CodeFlow.flip (fence, rdx_tx,
    # cc_event) and passes one policy gate: the claim races, rollback's
    # flip-then-pop order, the version map kept in flip order and the
    # per-path verb pins repeat under -race.
    echo "== publish paths (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestResidentFastPathVsDeltaClaimRace|TestConcurrentBroadcastLastWriterWins|TestRollback|TestPublishPath|TestPolicy|TestVersionMapFollowsDispatch' ./internal/core ./internal/controlha
    # A ReconnQP node link tolerates 3 redials per verb (a package
    # constant): the connection-kill chaos tests must complete their jobs
    # within it, repeated under -race.
    echo "== reconnecting node links (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestChaosReconnQPBroadcastSurvivesKills|TestChaosReconnQPRecoversMidDeltaKill' ./internal/core
    # The code region never wraps: an allocation reuses only space no
    # dispatched, pending or (short of pressure) historic blob holds. The
    # repros of overwritten and mis-dispatched code, the pending, abort
    # (at a node's reserve or its write) and
    # in-doubt contracts (a commit-only flip in doubt included), a cold
    # deploy deposed during its carve, the pressure path, the sweep's wait for fresh
    # allocations and the carve-versus-dispatch race repeat under -race.
    echo "== code region: no live blob reused (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestGrowingPublishesKeepOtherHooksCode|TestAllocCodeFillThenPublish|TestRepublishAfterOtherTermReusesOnlyLiveHistory|TestStagedBlobSurvivesExhaustingAllocation|TestAbortedBroadcastsReleaseTheirBlobs|TestAbortedWritesReleaseTheirBlobs|TestDispatchedBlobsFillRegion|TestPressureReclaimsOnlySoftLiveBlobs|TestCarveRacesCommitOnlyDispatch|TestSweepWaitsOutFreshAllocations|TestDeadlinePassedBeforePublishReleasesBlob|TestInDoubt|TestDeployProgFencedAfterCarve|TestResidentFastPathVsDeltaClaimRace' ./internal/core
    # A job's per-node work runs on one worker set that meets at a barrier
    # after its reserves and after its writes, and each stage links its own
    # copy of the cached master: the worker bound, the
    # stage-before-publish order, atomic abort, the
    # per-node link, the one compile per digest and the shard's atomic
    # N-node broadcast repeat under -race.
    echo "== fleet job workers (race, x20) =="
    go test -race -timeout 300s -count=20 -run 'TestInject|TestPublishBarrierHooks|TestStageLinksIntoOwnImage|TestBroadcast|TestCPExecutor' ./internal/pipeline ./internal/core ./internal/shard
fi

# The simregression build re-seeds one historical bug (pre-rotation
# takeover fencing in the failover scenario) and asserts the model checker
# FINDS it and shrinks it to a short replayable trace.
# TestReplayByteIdentical carries no build tag, so replay determinism is
# checked here and in `go test` above. Sim scenarios drive one appender per
# journal, so every flight there is one entry and the corpus under
# internal/sim/testdata/schedules replays unchanged.
echo "== simulation regression (the historical bug must be found) =="
go test -tags simregression -timeout 120s ./internal/sim/...

echo "verify: all stages passed"
