package main

import (
	"time"

	"semholo/internal/netsim"
)

// legKind says what a subscriber leg does with the frames it receives.
type legKind int

const (
	// legDecode decodes every frame in the workload's DecodeService and
	// rasterises the mesh to the probe camera; photon is the instant the
	// rasteriser returns.
	legDecode legKind = iota
	// legSink reads, CRC-checks (the session does), stamps arrival and
	// discards — a healthy subscriber that costs the relay a leg and the
	// receiving site nothing.
	legSink
)

// legSpec is one subscriber leg (or Count identical ones).
type legSpec struct {
	Name string
	// Pub is the publisher whose room the leg joins.
	Pub int
	// Shard is 0 for the room's home shard and 1 for the cascade's second
	// shard (ignored without a cluster).
	Shard int
	// Down shapes relay→subscriber; its Seed is derived from the run seed.
	Down netsim.LinkConfig
	Kind legKind
	// Measured legs feed the end-to-end metrics; the rest are background.
	Measured bool
	// Count > 1 attaches that many copies, named Name-000, Name-001, ….
	Count int
}

// workloadSpec declares one workload as data: topology.go wires it and
// run.go drives it, so workloads differ here and nowhere else.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	FPS float64
	// Publishers is the number of sending sites, each with its own room,
	// motion phase and uplink.
	Publishers int
	// Ladder selects the 3-rung semantic ladder (keypoint /
	// keypoint+texture / foveated hybrid) driven by the harness's own
	// open-loop sender; false selects a single-rung keypoint encoder
	// driven by the product's staged pipeline.RunSender (drop mode,
	// depth 1), which then owns the capture clock.
	Ladder bool
	// Shards: 0 wires one plain core.Relay per room, 1 one standalone
	// cluster.Shard, 2 a RoomManager cascade home→leaf over Trunk.
	Shards int
	Uplink netsim.LinkConfig
	Trunk  netsim.LinkConfig
	Legs   []legSpec
	// DecodeRes is the reconstruction resolution of the one
	// DecodeService all decode legs are tenants of.
	DecodeRes int
	// MinHops, when set, rejects the run if any measured frame arrived
	// with fewer hop records: a truncated waterfall is not a measurement.
	MinHops int
	// KernelProbes runs the single-goroutine layer micro-probes in this
	// workload's traced pass.
	KernelProbes bool
}

// ladderBitrates are the nominal rung demands the TierSelectors see.
var ladderBitrates = [3]float64{0.3e6, 2e6, 8e6}

// workloads returns the four workloads, sized for nproc cores.
func workloads(nproc int) []workloadSpec {
	fiber := netsim.FiberLAN(0)
	broadband := netsim.BroadbandUS(0)
	cascadeUplink := netsim.LinkConfig{Bandwidth: 100e6, Delay: 5 * time.Millisecond}
	cascadeTrunk := netsim.LinkConfig{Bandwidth: 100e6, Delay: 10 * time.Millisecond, Jitter: time.Millisecond}
	return []workloadSpec{
		{
			Name: "room-e2e",
			Why:  "healthy 2-shard room, 3-rung ladder, broadband viewer: every layer does a moderate share, so a regression anywhere shows",
			FPS:  30, Publishers: 1, Ladder: true, Shards: 2,
			Uplink: cascadeUplink, Trunk: cascadeTrunk,
			Legs: []legSpec{
				{Name: "viewer", Shard: 1, Down: broadband, Kind: legDecode, Measured: true},
				{Name: "mobile", Shard: 0, Down: netsim.LinkConfig{Bandwidth: 1e6, Delay: 40 * time.Millisecond}, Kind: legDecode},
			},
			DecodeRes: 64, MinHops: 6, KernelProbes: true,
		},
		{
			Name: "starved-legs",
			Why:  "two 200 kbps legs below rung 0 on one plain relay: egress-queue dwell, TierSelector and shedding do nearly all the work, decode almost none",
			FPS:  30, Publishers: 1, Ladder: true, Shards: 0,
			Uplink: cascadeUplink,
			Legs: []legSpec{
				{Name: "starved-a", Down: netsim.LinkConfig{Bandwidth: 200e3, Delay: 20 * time.Millisecond}, Kind: legDecode, Measured: true},
				{Name: "starved-b", Down: netsim.LinkConfig{Bandwidth: 200e3, Delay: 20 * time.Millisecond}, Kind: legDecode, Measured: true},
				{Name: "bystander", Down: broadband, Kind: legDecode},
			},
			DecodeRes: 32,
		},
		{
			Name: "decode-fanin",
			Why:  "two staged publishers into three res-64 tenants of one DecodeService over LAN: reconstruct, pool fairness and the shared mesh cache dominate, the network does almost nothing",
			FPS:  30, Publishers: 2, Ladder: false, Shards: 1,
			Uplink: fiber,
			Legs: []legSpec{
				{Name: "A1", Pub: 0, Down: fiber, Kind: legDecode, Measured: true},
				{Name: "A2", Pub: 0, Down: fiber, Kind: legDecode, Measured: true},
				{Name: "B1", Pub: 1, Down: fiber, Kind: legDecode, Measured: true},
			},
			DecodeRes: 64,
		},
		{
			Name: "fanout",
			Why:  "same cascade and ladder over LAN with 16 x nproc sink legs per shard and one decoding sentinel attached last: per-leg relay CPU and allocations for many healthy legs",
			FPS:  30, Publishers: 1, Ladder: true, Shards: 2,
			Uplink: fiber, Trunk: fiber,
			Legs: []legSpec{
				{Name: "sink-home", Shard: 0, Down: fiber, Kind: legSink, Count: 16 * nproc},
				{Name: "sink-leaf", Shard: 1, Down: fiber, Kind: legSink, Count: 16 * nproc},
				{Name: "sentinel", Shard: 1, Down: fiber, Kind: legDecode, Measured: true},
			},
			DecodeRes: 32, MinHops: 6,
		},
	}
}

// metricDecl names one metric the program emits.
type metricDecl struct {
	Name, Unit string
	// Higher is true when a larger value is better (BENCHMARK.json's
	// "better"); the comparison in compare.go reads it from there.
	Higher bool
}

// endToEndMetrics are emitted, under these names, by every workload's
// untraced pass.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", false},
	{"m2p_p50_ms", "ms", false},
	{"m2p_p95_ms", "ms", false},
	{"budget_score", "frac", true},
	{"displayed_fps", "1/s", true},
	{"chamfer_mm", "mm", false},
	{"allocs_per_frame", "count", false},
	{"alloc_kb_per_frame", "kB", false},
	{"live_heap_mb", "MB", false},
}

// perLayerMetrics are emitted by every workload's traced pass; a layer a
// workload does not have reads 0.
var perLayerMetrics = []metricDecl{
	{"core.encode_ms", "ms", false},
	{"core.encode_p95_ms", "ms", false},
	{"core.ladder_kb_per_frame", "kB", false},
	{"core.rung0_bytes", "B", false},
	{"core.rung1_bytes", "B", false},
	{"core.rung2_bytes", "B", false},
	{"core.transmit_ms", "ms", false},
	{"core.sender_dwell_ms", "ms", false},
	{"netsim.uplink_ms", "ms", false},
	{"netsim.downlink_ms", "ms", false},
	{"netsim.downlink_util", "frac", false},
	{"core.relay_ingress_ms", "ms", false},
	{"queue.egress_dwell_ms", "ms", false},
	{"queue.egress_dwell_p95_ms", "ms", false},
	{"core.relay_shed_frac", "frac", false},
	{"core.bystander_m2p_p95_ms", "ms", false},
	{"transport.tier_switches", "count", false},
	{"transport.final_tier", "tier", true},
	{"core.keyframe_requests", "count", false},
	{"transport.leg_bytes_per_frame", "B", false},
	{"cluster.trunk_transit_ms", "ms", false},
	{"cluster.child_dwell_ms", "ms", false},
	{"cluster.hop_records", "count", true},
	{"transport.recv_gap_ms", "ms", false},
	{"service.decode_call_ms", "ms", false},
	{"service.decode_call_p95_ms", "ms", false},
	{"service.pool_wait_ms", "ms", false},
	{"service.pool_wait_p95_ms", "ms", false},
	{"service.busy_frac", "frac", false},
	{"avatar.cache_hit_rate", "frac", true},
	{"avatar.crosstenant_hits", "count", true},
	{"mesh.sample_reuse_rate", "frac", true},
	{"avatar.capsule_tests_per_sample", "count", false},
	{"render.rasterize_ms", "ms", false},
	{"fanout.arrival_p50_ms", "ms", false},
	{"fanout.arrival_p95_ms", "ms", false},
	{"fanout.delivered_frac", "frac", true},
	{"obs.trace_overhead_frac", "frac", false},
	{"harness.cpu_cores", "cores", false},
	{"harness.gen_late_p95_ms", "ms", false},
	{"harness.span_residual_ms", "ms", false},
	{"harness.in_budget_frac", "frac", true},
	{"keypoint.detect_ms", "ms", false},
	{"compress.lzr_mb_per_s", "MB/s", true},
	{"compress.draco_encode_ms", "ms", false},
	{"transport.write_frame_ns", "ns", false},
	{"transport.write_shared_leg_ns", "ns", false},
	{"transport.read_frame_ns", "ns", false},
	{"avatar.reconstruct_cold_ms", "ms", false},
	{"avatar.reconstruct_warm_ms", "ms", false},
	{"avatar.cache_hit_ms", "ms", false},
	{"mesh.extract_allocs", "count", false},
}
