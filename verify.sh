#!/bin/sh
# Tier-1 verification gate (see README.md, "Testing"). Everything here must
# pass before a change lands: formatting, static checks, a full build, the
# complete test suite, the benchmark module's vet and tests, the race
# detector over the packages that run
# concurrent code (the parallel execution layer, its two biggest consumers,
# and the observability layer's shared Recorder, plus the serving layer's
# registry/cache/admission), 10 s fuzz smokes over the disk-tier
# artifact decoder, the dataset upload decoders, the assembled
# /v1/sample body, the shard replies the coordinator decodes and the
# DBSK1 estimator and DBSS1 sample payload decoders, the
# observability overhead guard over the enabled and
# the traced Recorder (OBS_GUARD gates the timing assertion; see
# obs_guard_test.go and BENCH_obs.json for the budget), the
# allocation gates of the draw and of a cache hit, and the reachability
# gate: no production function that no binary runs (REACH_GUARD gates
# it; see reach_guard_test.go).
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
# The benchmark is its own module (bench/go.mod, the repository replaced
# by ../), so the lines above never build it: vet it and run its tests —
# a quick traced run whose digests are checked against a reference server,
# plus its unit tests — against the code it drives.
(cd bench && go vet ./... && go test ./...)
go test -race ./internal/parallel/... ./internal/core/... ./internal/kde/... ./internal/obs/... ./internal/faults/... ./internal/server/... ./internal/dataset/... ./internal/shard/... ./internal/loadgen/... ./internal/stream/...
# Chaos smoke: the seeded fault-injection suite in short mode (12 seeds) —
# goroutine leaks, admission slot leaks, cache accounting drift, and any
# fault-corrupted response fail this line fast; the full 60-seed sweep
# already ran under the -race line above.
go test -race -run Chaos -short ./internal/...
# Incremental-ingestion smoke: chaos plus the append/generation suite
# (stale-fingerprint regression, O(|delta|) pass accounting, tau=0
# bit-for-bit parity) under the race detector.
go test -race -run 'Chaos|Append' -short ./internal/server/
# Sharded-serving smoke: the cross-mode parity matrix (single-node vs
# in-process vs HTTP workers vs hedging vs dead-peer fallback, all
# byte-identical) and the shard-RPC chaos suite (injected error/delay/
# partial faults: exact bytes via replica fallback or a loud 503, never
# a silently wrong merge) under the race detector.
go test -race -run 'Chaos|Shard' -short ./internal/server/
# Streaming smoke: the sliding-window suite — window-evict determinism
# (windowed /v1/sample byte-identical to registering the window's rows
# fresh, workers 1 and 8), window-pinned cache keys across appends, the
# duration window's fake-clock aging, the mmap window pin lifetime, and a
# deleted stream's state going with it (a stream re-created under its name
# misses with its own window's bytes) — under the race detector. The sketch estimator's tests in
# internal/stream already ran under the race line above.
go test -race -run 'Stream|Window' -short ./internal/server/ ./internal/dataset/
# Multi-tenant admission smoke: the weighted-fair queue (starvation,
# weighted share, per-tenant caps, priority preemption), the degrade
# ladder, the disk artifact tier's restart survival, the Retry-After
# hint regression, and access-log line atomicity — all under the race
# detector.
go test -race -run 'WFQ|Tenant|Degraded|DiskTier|RetryAfter|AccessLog' ./internal/server/
# Fuzz smoke: arbitrary bytes in a disk-tier artifact file (DBSA1 header,
# then a DBSK1 estimator or DBSS1 sample payload) must load as a miss or
# as an artifact that stores back byte-identically — never panic. The
# seed corpus holds one real estimator and one real sample, each whole
# and truncated (internal/server/testdata/fuzz/FuzzDiskTierLoad).
go test -run '^$' -fuzz '^FuzzDiskTierLoad$' -fuzztime 10s -parallel 2 ./internal/server/
# Fuzz smoke: arbitrary bytes as a dataset upload (the DBS1 and CSV
# decoders behind POST /v1/datasets and both append routes) must decode to
# an error — never a panic or a header-sized allocation — or to points
# that round-trip: DBS1 re-encodes to a prefix of the input, CSV re-reads
# bit for bit (internal/dataset/testdata/fuzz/FuzzReadUpload).
go test -run '^$' -fuzz '^FuzzReadUpload$' -fuzztime 10s -parallel 2 ./internal/dataset/
# Fuzz smoke: the /v1/sample body assembled from a stored tail —
# `{"dataset":`, the quoted name, the tail — must equal encoding/json's
# bytes for the same response (status, headers, body) for any dataset
# name and float, including the non-finite values json.Marshal refuses
# (internal/server/testdata/fuzz/FuzzSampleBody).
go test -run '^$' -fuzz '^FuzzSampleBody$' -fuzztime 10s -parallel 2 ./internal/server/
# Fuzz smoke: arbitrary bytes as a shard worker's round-one reply and as
# its fallback-round reply, through the coordinator's decoding and
# validation, must never panic; a round-one reply that validates must
# resolve to rows of its own blocks only; and the hex float encoding
# must round-trip every bit pattern. The seed corpus holds one real reply
# of each kind, whole and truncated
# (internal/shard/testdata/fuzz/FuzzShardReply).
go test -run '^$' -fuzz '^FuzzShardReply$' -fuzztime 10s -parallel 2 ./internal/shard/
# Fuzz smoke: arbitrary bytes as a DBSK1 estimator payload must decode to
# an error, never a panic, or to an estimator that re-marshals to the same
# bytes; a payload with a non-zero reserved header word never decodes
# (internal/kde/testdata/fuzz/FuzzUnmarshalEstimator).
go test -run '^$' -fuzz '^FuzzUnmarshalEstimator$' -fuzztime 10s -parallel 2 ./internal/kde/
# Fuzz smoke: arbitrary bytes as a DBSS1 sample payload must decode to an
# error, never a panic, or to a sample that re-marshals to the same bytes
# (internal/core/testdata/fuzz/FuzzUnmarshalSample).
go test -run '^$' -fuzz '^FuzzUnmarshalSample$' -fuzztime 10s -parallel 2 ./internal/core/
# Sustained-load smoke: the three-tenant WFQ/degrade/chaos proof in
# quick mode. Fails loudly if any tenant sees a non-shed failure (a 5xx
# surprise or transport error); the committed BENCH_load.json holds the
# full-size numbers.
go run ./cmd/dbsload -quick > /dev/null
# Observability-overhead guard: an enabled Recorder, and a traced one
# logging every span occurrence, must each stay within budget of the
# untraced draw, judged by the median of 31 interleaved paired ratios.
OBS_GUARD=1 go test -run TestObsOverheadGuard .
# Allocation-regression guards: steady-state Draw must perform zero
# per-block heap allocations (testing.AllocsPerRun over 512 blocks) and,
# with its weight cache pooled, allocate fewer than 8 bytes per point
# (see internal/core/allocs_test.go and DESIGN.md, "Memory layout &
# zero-copy scans"); a /v1/sample cache hit writes its stored body, so
# what it allocates must not grow with the sample (b = 10 against
# b = 1000, internal/server/body_test.go).
go test -run 'TestDrawSteadyStateAllocs|TestDrawWeightCacheAllocs' ./internal/core/
go test -run TestSampleHitAllocs ./internal/server/
# Reachability gate: build every command, example and the bench module
# with -dumpdep and fail on any production function none of them reaches
# that reach_guard_test.go's allowlist does not name with its reason.
# -count=1: the builds run as subprocesses and the parser skips bench/, so
# the test cache would not see a change to bench/*.go and replay a pass.
REACH_GUARD=1 go test -count=1 -run TestReachGuard .
