GO ?= go

.PHONY: verify fmt-check vet build test race bench bench-parallel bench-m2p ci cache-determinism obs-check pipeline-check relay-check service-check field-check trace-check tier-check cluster-check alloc-check

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

## bench-m2p: the motion-to-photon benchmark BENCHMARK.json declares —
## all four workloads end to end through bench/run.sh. Not chained into
## ci: it is ≈2.5 min of wall clock and refuses an oversubscribed box.
bench-m2p:
	bash bench/run.sh --trace 0

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
	$(MAKE) alloc-check

## pipeline-check: the staged-runtime gate — race-enabled goroutine-leak
## tests (pipeline, relay, session) plus the staged-vs-sequential
## byte-identity regression.
pipeline-check:
	$(GO) test -race -run 'TestStaged|TestQueue|TestGroup|TestConcurrentShutdown|TestRelay|TestCancel|TestClose|TestPing|TestSession' ./internal/pipeline ./internal/queue ./internal/core ./internal/transport

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

## service-check: the multi-tenant decode-service gate — race-enabled
## worker-pool suites (budget, FIFO fairness, cancel races), the
## single-flight mesh-cache suites, the service byte-identity regression
## against a solo receiver, the shared-mesh read-only test (a hybrid and
## a keypoint tenant decode one stream while a third goroutine re-reads
## every cached mesh: an in-place writer is a detected race), tenant-churn
## leak checks, and the 32-tenant admit/detach hammer. The hybrid
## gaze-anchor race test rides along.
service-check:
	$(GO) test -race ./internal/par ./internal/service
	$(GO) test -race -run 'TestMeshCache|TestHybridGazeAnchor' ./internal/avatar ./internal/core

## cache-determinism: the warm-vs-cold byte-identity regression tests.
cache-determinism:
	$(GO) test -run 'Temporal|Anchored|WarmStart|MeshCache|CacheAndWarm' ./internal/mesh ./internal/avatar

## field-check: the SDF-acceleration gate — race-enabled pruned-vs-brute
## bitwise identity (property + fuzz seed corpus), the 50-frame motion
## byte-identity regression at several worker counts with the culling
## grid on and off, the batched dense/sparse extractor identity suites,
## and the shared segment-distance bitwise regression.
field-check:
	$(GO) test -race -run 'TestFieldPruned|TestFieldPruning|TestFieldDense|TestFieldEmpty|TestSparseBatch|TestDenseBatch|TestSegDist|TestDistSqBox' ./internal/avatar ./internal/mesh ./internal/geom

## trace-check: the hop-tracing gate — race-enabled flight-recorder /
## trace-store / waterfall / exemplar suites (full package), plus the
## hop-extension wire-compat suites (golden bytes, per-hop CRC
## corruption, truncation, shared-frame egress-slot reservation) and the
## relay hop-stamping e2e test (hop-sum vs e2e, exemplar → stored trace →
## rendered waterfall).
trace-check:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestHop|TestGoldenWireBytes|TestTruncatedHop|TestAppendHop|TestPerHopRecord|TestSessionSendTracedHops|TestSharedFrameAppendHop|TestSharedFromFrameFullPathEgressDrop|TestSendSharedTraced|TestRelayHopStamping' ./internal/transport ./internal/core

## tier-check: the adaptive-tiering gate — race-enabled ladder encode
## suites (rung ordering, per-tier state reuse, ladder-of-one byte
## identity), the tier wire-extension compat suites, the TierSelector
## signal/backoff unit tests, the AdaptiveDecoder channel demux, the
## mid-stream switch decode regression (byte-identical to a cold decode
## at the switch boundary), the newest-wins dequeue suites that feed the
## selector (TestRelayTiersNewestWinsAfterStall,
## TestRelayTiersStarvedLegHoldsTierZero,
## TestRelayTrunkSupersedesWholeLadders), the link-collapse episode
## (TestRelayTiersFollowLinkCollapse: a text/keypoint/traditional leg
## steps down after its link collapses, every rung change flagged, every
## frame decoded, tier series scraped), and the two-leg
## heterogeneous-link relay convergence test — run five times, since it
## is the wall-clock test that catches a starved leg probing upward
## when its shedding stops reaching the TierSelector.
tier-check:
	$(GO) test -race -skip 'TestRelayTiersPerSubscriber' -run 'TestTier|TestLadder|TestSemanticLadder|TestSharedFrameSet|TestAdaptive|TestMidStream|TestRelayTiers|TestRelayTrunkSupersedesWholeLadders|TestGoldenTierWireBytes|TestBandwidthEstimator|TestTextLadder' ./internal/core ./internal/transport
	$(GO) test -race -count=5 -run 'TestRelayTiersPerSubscriber' ./internal/core

## cluster-check: the sharded-cluster gate — race-enabled placement /
## cascade / churn suites (bounded-load ring, depth-2
## byte identity, depth-3 hop-cap drop, trunk-reconnect seq contiguity,
## admission), the payload-adoption wire suites, and the seeded-jitter
## mesh tests. The trunk-vs-subscriber alloc-parity regression and the
## zero-alloc pin on batch sends (TestTrunkLegAllocsBatchSend) run on
## their own non-race line: race instrumentation perturbs alloc counts.
cluster-check:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'TestSharedFromWire|TestAdoptPayload|TestTrunkReshare|TestJitter|TestMeshSeeds|TestMeshDial' ./internal/transport ./internal/netsim
	$(GO) test -run 'TestTrunkLegAllocs' ./internal/transport

## alloc-check: the decode-path allocation pins, on a non-race line (race
## instrumentation perturbs alloc counts — same reason as cluster-check's
## TestTrunkLegAllocs line): a mesh-cache hit through
## Reconstructor.Reconstruct allocates nothing, the hybrid graft allocates
## three objects per frame (mesh header + two exact-size arrays), and
## steady-state lzr.Compress of a marshalled pose stays under 8 KiB per
## call (its 256 KiB hash-head table is pooled).
alloc-check:
	$(GO) test -run 'TestReconstructCacheHitAllocs|TestHybridGraftAllocs|TestCompressPoseAllocs' ./internal/avatar ./internal/core ./internal/compress/lzr
