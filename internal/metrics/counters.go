package metrics

// Counters for reconstruction (mesh LRU hits, frames, SDF lattice
// samples evaluated). One ReconCounters instance may be shared by several
// reconstructors — e.g. every receiver of a cloud session — so all fields
// are atomic.

import (
	"sync/atomic"

	"semholo/internal/obs"
)

// ReconCounters aggregates reconstruction-cache telemetry. The zero
// value is ready to use; methods on a nil receiver are no-ops, so call
// sites never need to guard the optional counter hookup.
type ReconCounters struct {
	meshHits        atomic.Uint64
	meshMisses      atomic.Uint64
	meshEvictions   atomic.Uint64
	crossTenantHits atomic.Uint64
	frames          atomic.Uint64
	evaluated       atomic.Uint64
}

// AddMeshHit records a pose-keyed mesh cache hit.
func (c *ReconCounters) AddMeshHit() {
	if c != nil {
		c.meshHits.Add(1)
		obs.Flight.Record(obs.EvCacheHit, "meshcache", 0, 0, 0)
	}
}

// AddMeshMiss records a pose-keyed mesh cache miss.
func (c *ReconCounters) AddMeshMiss() {
	if c != nil {
		c.meshMisses.Add(1)
		obs.Flight.Record(obs.EvCacheMiss, "meshcache", 0, 0, 0)
	}
}

// AddCrossTenantHit records a mesh cache hit served to a reconstructor
// other than the one that produced the entry — two streams sharing one
// pose-space entry in a multi-tenant decode service.
func (c *ReconCounters) AddCrossTenantHit() {
	if c != nil {
		c.crossTenantHits.Add(1)
	}
}

// AddMeshEviction records an LRU eviction.
func (c *ReconCounters) AddMeshEviction() {
	if c != nil {
		c.meshEvictions.Add(1)
	}
}

// AddFrame records one reconstructed frame and the SDF lattice samples
// its extraction evaluated (0 for a skinned frame).
func (c *ReconCounters) AddFrame(evaluated int) {
	if c == nil {
		return
	}
	c.frames.Add(1)
	c.evaluated.Add(uint64(evaluated))
}

// Snapshot returns a consistent-enough copy for reporting (individual
// loads are atomic; the set is not a transaction, which reporting does
// not need).
func (c *ReconCounters) Snapshot() ReconStats {
	if c == nil {
		return ReconStats{}
	}
	return ReconStats{
		MeshHits:         c.meshHits.Load(),
		MeshMisses:       c.meshMisses.Load(),
		MeshEvictions:    c.meshEvictions.Load(),
		CrossTenantHits:  c.crossTenantHits.Load(),
		Frames:           c.frames.Load(),
		SamplesEvaluated: c.evaluated.Load(),
	}
}

// Register wires the counters into the shared observability registry as
// pull-backed series, so one /metrics scrape reports reconstruction
// cache behavior alongside the rest of the pipeline. Safe on nil (no-op)
// to match the rest of the ReconCounters API.
func (c *ReconCounters) Register(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	ops := reg.Counter("semholo_recon_mesh_cache_ops_total",
		"Pose-keyed mesh LRU operations.", "op")
	ops.Func(func() float64 { return float64(c.meshHits.Load()) }, "hit")
	ops.Func(func() float64 { return float64(c.meshMisses.Load()) }, "miss")
	ops.Func(func() float64 { return float64(c.meshEvictions.Load()) }, "eviction")
	reg.Counter("semholo_meshcache_crosstenant_hits_total",
		"Mesh LRU hits served to a tenant other than the entry's producer.").
		Func(func() float64 { return float64(c.crossTenantHits.Load()) })
	reg.Counter("semholo_recon_frames_total",
		"Reconstructed frames by extraction mode.", "kind").
		Func(func() float64 { return float64(c.frames.Load()) }, "cold")
	reg.Counter("semholo_recon_samples_total",
		"SDF lattice samples by source.", "kind").
		Func(func() float64 { return float64(c.evaluated.Load()) }, "evaluated")
	reg.GaugeFunc("semholo_recon_mesh_cache_hit_rate",
		"Fraction of Reconstruct and Skin calls served from the mesh LRU.",
		func() float64 { return c.Snapshot().HitRate() })
}

// ReconStats is a point-in-time copy of ReconCounters.
type ReconStats struct {
	MeshHits         uint64
	MeshMisses       uint64
	MeshEvictions    uint64
	CrossTenantHits  uint64
	Frames           uint64
	SamplesEvaluated uint64
	// SamplesReused always reads 0: every extraction is cold. Kept
	// because bench/ reads it.
	SamplesReused uint64
}

// HitRate is the fraction of Reconstruct calls served from the mesh LRU.
func (s ReconStats) HitRate() float64 {
	total := s.MeshHits + s.MeshMisses
	if total == 0 {
		return 0
	}
	return float64(s.MeshHits) / float64(total)
}
