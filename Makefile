GO ?= go

.PHONY: verify fmt-check vet build test race bench bench-parallel bench-m2p ci run-patterns-check cache-determinism obs-check pipeline-check relay-check service-check trace-check tier-check cluster-check alloc-check fuzz-smoke bench-smoke

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

## ci: the full gate — vet, build, a check that every test pattern below
## still names a test, a small Figure 4 run (semholo-bench's fig4 table
## has no other caller), race-enabled tests (the rasteriser's pooled
## scratch hammered by concurrent renders of mixed sizes three times
## over), the reconstruction determinism
## suite (reused and cached output must stay byte-identical to a fresh
## reconstruction, skinned output deterministic and no worse than
## extraction), the per-subsystem gates, the allocation pins, 10 s of
## fuzzing per peer-bytes parser and per byte-identity target, and a
## short pass of every benchmark workload.
ci: vet build
	$(MAKE) run-patterns-check
	$(GO) run ./cmd/semholo-bench -exp fig4 -res 32,48 -frames 5 -par 1
	$(GO) test -race -short ./...
	$(GO) test -race -count=3 -run 'TestRenderMeshPooledConcurrent' ./internal/render
	$(MAKE) cache-determinism
	$(MAKE) obs-check
	$(MAKE) pipeline-check
	$(MAKE) relay-check
	$(MAKE) service-check
	$(MAKE) trace-check
	$(MAKE) tier-check
	$(MAKE) cluster-check
	$(MAKE) alloc-check
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke

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
## wire-compat suites (WriteSharedFrameLeg byte identity, CRC combine,
## SendBatch and SendSharedBatch interleaving on one session's seq), the
## batch-send suites (TestBatch*/TestSendBatch*: one write per media
## frame, bytes identical to frame-by-frame, a batch of one a single
## frame's writes, a pong never inside a batch),
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
## against the bare decoder, the shared-mesh read-only test (a hybrid and
## a keypoint tenant decode one stream while a third goroutine re-reads
## every cached mesh: an in-place writer is a detected race), tenant-churn
## leak checks, and the 32-tenant admit/detach hammer. The hybrid
## gaze-anchor race test rides along.
service-check:
	$(GO) test -race ./internal/par ./internal/service
	$(GO) test -race -run 'TestMeshCache|TestHybridGazeAnchor' ./internal/avatar ./internal/core

## run-patterns-check: every -run/-bench/-fuzz alternative in this
## Makefile must match at least one test of the packages on its line —
## `go test -run` with no match exits 0, so a renamed or deleted test
## would otherwise leave its gate green and empty.
run-patterns-check:
	GO=$(GO) bash scripts/check-run-patterns.sh Makefile

## cache-determinism: the reconstruction byte-identity regression tests
## — golden digests of 20 talking frames through Reconstruct and through
## Skin at res 32/64 (the skin digest covers the canonical pass and
## BindWeights) and of 5 full-grid frames at res 32 and workers 1/3, a reused
## Reconstructor against a fresh one per frame (50 motion frames,
## workers 1/4, and across a large pose jump), the narrow-band extractor
## against the dense sweep and across worker counts, grid anchoring, the
## capsule field's empty edge and its segment-distance kernel, the mesh
## LRU — plus the skinned decode's gates: skinned chamfer against the
## ground-truth body no worse than extraction's (3 motions × res 32/64 ×
## 50 frames), and skinned output identical across worker counts, cache
## and resolution changes.
cache-determinism:
	$(GO) test -run 'TestReconstructGoldenHash|TestSkinGoldenHash|TestDenseReconstructGoldenHash|TestWarmStart|TestSparseBatchMatchesScalar|TestExtractIsosurfaceSparseParallelDeterministic|Anchored|MeshCache|CacheAndWarm|TestSkinnedChamferNoWorseThanExtracted|TestSkinDeterministic|TestFieldEmptyBones|TestSegDist' ./internal/mesh ./internal/avatar ./internal/geom

## trace-check: the hop-tracing gate — race-enabled flight-recorder /
## trace-store / waterfall / exemplar suites (full package), plus the
## hop-extension wire-compat suites (golden bytes, per-hop CRC
## corruption, truncation, an over-long path refused on write, read and
## capture alike, shared-frame egress-slot reservation, a traced
## SendBatch stamping its hops at write time) and the
## relay hop-stamping e2e test (sender → relay → staged receiver's
## service hop; hop-sum vs e2e, exemplar → stored trace → rendered
## waterfall).
trace-check:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestHop|TestGoldenWireBytes|TestTruncatedHop|TestAppendHop|TestPerHopRecord|TestSessionSendTracedHops|TestSharedFrameAppendHop|TestSharedFromFrameFullPathEgressDrop|TestSendSharedTraced|TestRelayHopStamping' ./internal/transport ./internal/service

## tier-check: the adaptive-tiering gate — race-enabled ladder encode
## suites (rung ordering, per-tier state reuse, ladder-of-one byte
## identity, every rung byte-identical to its standalone encoder on the
## quantised pose while a standalone encoder keeps the float64 frame,
## rung 0's wire frame inside a 200 kbps leg's headroom at 30 fps), the
## quantised pose codec's round-trip and fallback suite, the tier
## wire-extension compat suites, the TierSelector
## signal/backoff unit tests and its capacity gate
## (TestTierSelectorCapacityGatesProbes: a leg probes only rungs its
## capacity sample covers), the capacity sample itself
## (TestTierCapacityReadWithinThirtyPercent: a ping sharing the frame's
## write reads 200 kbps and 1 Mbps netsim legs within ±30 %, also for a
## viewer that spends 10 ms on each frame before reading the ping;
## TestTierCapacityNeedsUnloadedSample), the relay's per-rung demand
## measured per stream at ingress and summed per leg over the streams
## it serves (TestRelayTiersDemandMeasuredAtIngress,
## TestRelayTiersLegDemandSumsServedStreams), the capacity-gated relay
## legs at real rung sizes (TestRelayTiersCapacityHoldsStarvedLeg: a
## calm 200 kbps leg never probes across ten UpDwells;
## TestRelayTiersCapacityStopsAtRungOne, whose viewer spends 10 ms on
## each frame; TestRelayTiersCapacityTwoParty: two participants
## who both publish climb their 1 Mbps legs to rung 1;
## TestRelayTiersCapacityClimbsBroadband), the AdaptiveDecoder channel demux, the
## decode-service tenant's mid-stream switch regression (byte-identical
## to a cold decode at the switch boundary), the newest-wins dequeue suites that feed the
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
	$(GO) test -race -skip 'TestRelayTiersPerSubscriber' -run 'TestTier|TestSemanticLadder|TestSharedFrameSet|TestAdaptive|TestMidStream|TestRelayTiers|TestRelayTrunkSupersedesWholeLadders|TestGoldenTierWireBytes|TestBandwidthEstimator|TestTextLadder|TestCompactPose' ./internal/core ./internal/transport ./internal/service ./internal/body
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
	$(GO) test -race -run 'TestSharedFromWire|TestAdoptPayload|TestJitter|TestMeshSeeds|TestMeshDial' ./internal/transport ./internal/netsim
	$(GO) test -run 'TestTrunkLegAllocs' ./internal/transport

## alloc-check: the allocation pins, on a non-race line (race
## instrumentation perturbs alloc counts — same reason as cluster-check's
## TestTrunkLegAllocs line).
## Decode path: a mesh-cache hit through Reconstructor.Reconstruct
## allocates nothing; a steady-state skinned frame allocates two objects
## (mesh header + vertex array; the faces are the rest surface's); the
## hybrid graft allocates three objects per frame (mesh header + two
## exact-size arrays); a hybrid frame's foveal patch is decoded into the
## decoder's own scratch, so it costs no more than lzr's decompressed
## stream and the graft's three objects over the same frame without one.
## Rung-2 encode: the foveal cut into the encoder's reused submesh plus
## dracogo.EncodeMesh (raw stream in pooled scratch) make one allocation,
## the exact-size payload.
## Render and capture: serial render.RenderMesh allocates nothing (its
## projection scratch is pooled), and a capture rig at Workers 1 (the
## rasteriser's Workers left at its default) allocates its views slice, one frame per camera whose depth and colour buffers the
## view takes over, and par.For's dispatch — nothing per render.
## Codecs: steady-state lzr.Compress of a marshalled pose stays under
## 8 KiB per call and makes one allocation, its output (the model is a
## stack copy; the base-stamped 256 KiB hash-head table, the chain and
## the coder's output buffer are pooled); lzr.Decompress of that pose's
## stream makes one allocation, its output; mesh.SamplePoints(n) makes
## one allocation of ≤ (n+1)×24 B.
## Hostile lengths: lzr.Decompress of a 14-byte stream declaring 4 GiB
## fails with ErrCorrupt having allocated ≤ 64 KiB; a 24-byte frame
## header declaring a 16 MiB payload, then EOF, fails
## FrameReader.ReadFrame having allocated ≤ 64 KiB (plus the error);
## dracogo.DecodeMesh/DecodeCloud of a short stream declaring 2^24
## vertices/points fail having allocated ≤ 64 KiB.
## Relay: a leg's tiered cadence send (a rung plus its trailing capacity
## ping, one write) and a plain leg's send (one hop-traced frame with its
## egress hop, no ping) allocate nothing in steady state.
alloc-check:
	$(GO) test -run 'TestReconstructCacheHitAllocs|TestSkinAllocs|TestHybridGraftAllocs|TestHybridDecodePatchAllocs|TestFovealEncodeAllocs|TestCompressPoseAllocs|TestCompressPoseOneAlloc|TestDecompressPoseOneAlloc|TestDecompressHostileLengthAllocs|TestSamplePointsAllocs|TestReadFrameHostileLengthAllocs|TestDecodeMeshHostileCountAllocs|TestDecodeCloudHostileCountAllocs|TestRenderMeshAllocs|TestCaptureAllocs|TestSendSharedBatchTrailingPingAllocs' ./internal/avatar ./internal/core ./internal/compress/lzr ./internal/mesh ./internal/transport ./internal/compress/dracogo ./internal/render ./internal/capture

## fuzz-smoke: 10 s of coverage-guided fuzzing per parser of peer bytes
## — the pose frame (both magics), lzr streams (alone, and against the
## reference coder stream for stream), the hop-trace wire extension,
## the frame reader over every flag combination and batch boundary, the
## trunk ingress's capture and re-emission (read, adopt or copy, re-emit:
## byte for byte what was read), dracogo mesh and cloud streams, the
## texture rung's BTC payload, the text rung's keyframe and delta
## documents through TextDecoder — plus
## the rasteriser against its reference (triangle soups with vertices
## behind the near plane, degenerate faces, slivers and vertices within
## ulps of a pixel centre). Text documents run to a few hundred bytes,
## and the engine's minimiser is quadratic in input length, so
## FuzzTextDecode caps minimisation at 1 s per input — without the cap
## a 10 s run spends itself minimising its first find. Each target
## asserts an allocation ceiling or a bitwise identity, not only the
## absence of a panic; a crasher lands in the package's testdata/fuzz
## and must be committed as a regression case.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalParams$$' -fuzztime 10s ./internal/body
	$(GO) test -run '^$$' -fuzz '^FuzzLZRDecompress$$' -fuzztime 10s ./internal/compress/lzr
	$(GO) test -run '^$$' -fuzz '^FuzzCompressMatchesReference$$' -fuzztime 10s ./internal/compress/lzr
	$(GO) test -run '^$$' -fuzz '^FuzzHopTraceRoundTrip$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzSharedFromWire$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMesh$$' -fuzztime 10s ./internal/compress/dracogo
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCloud$$' -fuzztime 10s ./internal/compress/dracogo
	$(GO) test -run '^$$' -fuzz '^FuzzRenderMesh$$' -fuzztime 10s ./internal/render
	$(GO) test -run '^$$' -fuzz '^FuzzDecompressBTC$$' -fuzztime 10s ./internal/texture
	$(GO) test -run '^$$' -fuzz '^FuzzTextDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core

## bench-smoke: a 3 s pass of each benchmark workload through
## bench/run.sh. A pass that reads correct false, counts a failed
## operation or is rejected exits non-zero and fails the target. ≈50 s.
bench-smoke:
	for w in room-e2e starved-legs decode-fanin fanout; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done
