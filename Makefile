GO ?= go

.PHONY: verify fmt-check vet build test race bench bench-parallel ci cache-determinism bench-cache obs-check pipeline-check bench-pipeline relay-check bench-relay service-check bench-multitenant field-check bench-field trace-check bench-trace tier-check bench-tiering cluster-check bench-cluster

## verify: the full pre-commit gate — formatting, vet, build, tests.
verify: fmt-check vet build test

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the concurrency gate; -short keeps it fast on slow machines
## while still exercising every parallel kernel.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

## bench-parallel: the worker-pool kernels, serial vs GOMAXPROCS.
bench-parallel:
	$(GO) test -run xxx -bench 'Parallel' -benchmem .

## ci: the full gate — vet, build, race-enabled tests, the
## temporal-coherence determinism suite (warm/cached output must stay
## byte-identical to cold reconstruction), and the observability gate.
ci: vet build
	$(GO) test -race -short ./...
	$(MAKE) cache-determinism
	$(MAKE) obs-check
	$(MAKE) pipeline-check
	$(MAKE) relay-check
	$(MAKE) service-check
	$(MAKE) field-check
	$(MAKE) trace-check
	$(MAKE) tier-check
	$(MAKE) cluster-check

## pipeline-check: the staged-runtime gate — race-enabled goroutine-leak
## tests (pipeline, relay, session) plus the staged-vs-sequential
## byte-identity regression.
pipeline-check:
	$(GO) test -race -run 'TestStaged|TestQueue|TestGroup|TestConcurrentShutdown|TestRelay|TestCancel|TestClose|TestPing|TestSession' ./internal/pipeline ./internal/queue ./internal/core ./internal/transport

## bench-pipeline: sequential vs staged motion-to-photon latency, plus
## the JSON record via the bench CLI.
bench-pipeline:
	$(GO) run ./cmd/semholo-bench -exp pipeline -pipeout BENCH_pipeline.json

## obs-check: the observability gate — vet plus the race-enabled metric
## registry / wire-trace suites (concurrent counters, histograms,
## exposition, and the end-to-end scrape integration test).
obs-check:
	$(GO) vet ./...
	$(GO) test -race ./internal/obs ./internal/transport

## relay-check: the fan-out scale-out gate — race-enabled serialize-once
## wire-compat suites (byte identity, CRC combine, interleaved seq), the
## batch-send suites (TestBatch*/TestSendBatch*: one write per media
## frame, bytes identical to frame-by-frame, a pong never inside a batch),
## slow-subscriber isolation, egress churn leak checks, the newest-wins
## dequeue suites (all under the TestRelay prefix:
## TestRelayTiersNewestWinsAfterStall, TestRelayNewestWinsKeepsControlInOrder,
## TestRelayNewestWinsNeverSkipsDeltas, TestRelayTrunkSupersedesWholeLadders,
## TestRelayTiersStarvedLegHoldsTierZero), the queue's evict-vs-shed
## accounting hammer, and the netsim stall/resume tests backing them.
relay-check:
	$(GO) test -race -run 'TestRelay|TestSharedFrame|TestWriteSharedFrame|TestSendShared|TestBatch|TestSendBatch|TestCRCShift|TestLinkStall|TestLinkClose' ./internal/core ./internal/transport ./internal/netsim
	$(GO) test -race -count=10 -run 'TestQueueShedAndEvictAccounting|TestQueueTryGet' ./internal/queue

## bench-relay: serial vs serialize-once fan-out microbenchmarks, plus
## the multi-party relay load benchmark JSON record via the bench CLI.
bench-relay:
	$(GO) test -run xxx -bench 'RelayFanout' -benchmem ./internal/transport
	$(GO) run ./cmd/semholo-bench -exp relay -relayout BENCH_relay.json

## service-check: the multi-tenant decode-service gate — race-enabled
## worker-pool suites (budget, FIFO fairness, cancel races), the
## single-flight mesh-cache suites, the service byte-identity regression
## against a solo receiver, tenant-churn leak checks, and the 32-tenant
## admit/detach hammer. The hybrid gaze-anchor race test rides along.
service-check:
	$(GO) test -race ./internal/par ./internal/service
	$(GO) test -race -run 'TestMeshCache|TestHybridGazeAnchor' ./internal/avatar ./internal/core

## bench-multitenant: the shared-service scaling record — correlated vs
## independent vs isolated arms at 1/8/32/64 tenants, written as
## BENCH_multitenant.json via the bench CLI.
bench-multitenant:
	$(GO) run ./cmd/semholo-bench -exp multitenant -mtout BENCH_multitenant.json

## cache-determinism: the warm-vs-cold byte-identity regression tests.
cache-determinism:
	$(GO) test -run 'Temporal|Anchored|WarmStart|MeshCache|CacheAndWarm' ./internal/mesh ./internal/avatar

## bench-cache: the temporal-coherence benchmarks (cold vs warm vs LRU
## hit), plus the JSON record via the bench CLI.
bench-cache:
	$(GO) test -run xxx -bench 'ReconstructParallel|ReconstructWarm|ReconstructCacheHit' -benchmem .
	$(GO) run ./cmd/semholo-bench -exp cache -cacheout BENCH_cache.json

## field-check: the SDF-acceleration gate — race-enabled pruned-vs-brute
## bitwise identity (property + fuzz seed corpus), the 50-frame motion
## byte-identity regression at several worker counts with the culling
## grid on and off, the batched dense/sparse extractor identity suites,
## and the shared segment-distance bitwise regression.
field-check:
	$(GO) test -race -run 'TestFieldPruned|TestFieldPruning|TestFieldDense|TestFieldEmpty|TestSparseBatch|TestDenseBatch|TestSegDist|TestDistSqBox' ./internal/avatar ./internal/mesh ./internal/geom

## trace-check: the hop-tracing gate — race-enabled flight-recorder /
## trace-store / waterfall / exemplar suites and the bounded-reservoir
## tracer regression (full packages), plus the hop-extension wire-compat
## suites (golden bytes, per-hop CRC corruption, truncation, shared-frame
## egress-slot reservation), the relay hop-stamping e2e test, and the
## tracewaterfall attribution experiment.
trace-check:
	$(GO) test -race ./internal/obs ./internal/trace
	$(GO) test -race -run 'TestHop|TestGoldenWireBytes|TestTruncatedHop|TestAppendHop|TestPerHopRecord|TestSessionSendTracedHops|TestSharedFrameAppendHop|TestSharedFromFrameFullPathEgressDrop|TestSendSharedTraced|TestRelayHopStamping|TestTraceWaterfall' ./internal/transport ./internal/core ./internal/experiments

## bench-trace: the hop-trace attribution + observability-overhead
## record — a relayed run over an impaired link (per-frame waterfalls,
## hop-sum drift, worst-frame exemplar) and the traced / recorder-off /
## untraced per-frame ablation, written as BENCH_trace.json via the
## bench CLI. Budget: full tracing stack ≤2% per frame at res 128.
bench-trace:
	$(GO) run ./cmd/semholo-bench -exp tracewaterfall -traceout BENCH_trace.json

## tier-check: the adaptive-tiering gate — race-enabled ladder encode
## suites (rung ordering, per-tier state reuse, ladder-of-one byte
## identity), the tier wire-extension compat suites, the TierSelector
## signal/backoff unit tests, the mid-stream switch decode regression
## (byte-identical to a cold decode at the switch boundary), the
## newest-wins dequeue suites that feed the selector
## (TestRelayTiersNewestWinsAfterStall, TestRelayTiersStarvedLegHoldsTierZero,
## TestRelayTrunkSupersedesWholeLadders), and the two-leg
## heterogeneous-link relay convergence test — run five times, since it
## is the wall-clock test that catches a starved leg probing upward
## when its shedding stops reaching the TierSelector.
tier-check:
	$(GO) test -race -skip 'TestRelayTiersPerSubscriber' -run 'TestTier|TestLadder|TestSemanticLadder|TestSharedFrameSet|TestAdaptive|TestMidStream|TestRelayTiers|TestRelayTrunkSupersedesWholeLadders|TestGoldenTierWireBytes|TestBandwidthEstimator|TestTextLadder' ./internal/core ./internal/transport
	$(GO) test -race -count=5 -run 'TestRelayTiersPerSubscriber' ./internal/core

## bench-tiering: the per-subscriber tiering record — one publisher's
## three-rung ladder through the relay to a 25 Mbps and a 200 kbps leg,
## per-leg converged tier / switches / motion-to-photon p50+p95 and
## per-rung delivered quality, written as BENCH_tiering.json via the
## bench CLI.
bench-tiering:
	$(GO) run ./cmd/semholo-bench -exp tiering -tierout BENCH_tiering.json

## cluster-check: the sharded-cluster gate — race-enabled placement /
## cascade / churn suites (bounded-load ring vs rendezvous, depth-2
## byte identity, depth-3 hop-cap drop, trunk-reconnect seq contiguity,
## admission), the payload-adoption wire suites, and the seeded-jitter
## mesh tests. The trunk-vs-subscriber alloc-parity regression and the
## zero-alloc pin on batch sends (TestTrunkLegAllocsBatchSend) run on
## their own non-race line: race instrumentation perturbs alloc counts.
cluster-check:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'TestSharedFromWire|TestAdoptPayload|TestTrunkReshare|TestJitter|TestMeshSeeds|TestMeshDial' ./internal/transport ./internal/netsim
	$(GO) test -run 'TestTrunkLegAllocs' ./internal/transport

## bench-cluster: the sharded-cluster scaling record — 8 shards × 256
## subscribers/shard over a seeded netsim mesh at cascade depth 0/1/2:
## per-depth fan-out CPU, trunk-vs-subscriber allocs/frame parity, and
## p95 delivery latency vs the flat single-relay baseline, written as
## BENCH_cluster.json via the bench CLI.
bench-cluster:
	$(GO) run ./cmd/semholo-bench -exp cluster -clusterout BENCH_cluster.json

## bench-field: pruned vs unpruned reconstruction microbenchmarks plus
## the field-acceleration JSON record (cold/warm/dense arms at several
## resolutions and the 64-tenant aggregate delta) via the bench CLI.
bench-field:
	$(GO) test -run xxx -bench 'ReconstructCold|SegDist' -benchmem ./internal/avatar ./internal/geom
	$(GO) run ./cmd/semholo-bench -exp field -fieldout BENCH_fieldaccel.json
