// Package service consolidates many avatar streams into one decode
// process. A solo core.Receiver pays a full worker pool, mesh cache, and
// scratch arena per stream; a shard hosting dozens of telepresence users
// multiplies that by N for state that is either immutable (body model,
// reconstruction kernels) or cheap per stream (warm-start bands, codec
// scratch). DecodeService splits the two: shared immutable kernels plus
// one pose-keyed mesh cache and one par.Pool worker budget for the whole
// process, with a small per-stream context (StreamCtx) allocated on
// admission.
//
// Fairness: every decode reserves its proportional share of the pool
// (capacity / active tenants, at least 1 slot) and pool waiters are
// served FIFO, so a tenant re-queues behind the others after every frame
// — round-robin admission without a scheduler thread. A per-tenant
// in-flight cap keeps one stream from occupying the queue with a burst.
//
// Determinism: all reconstruction kernels are worker-count invariant and
// the shared cache keys on exact bitwise parameters by default, so each
// stream's output is byte-identical to a solo Receiver decoding the same
// wire frames, at any pool size and any tenant mix.
//
// Sharing: the cache holds one copy of each mesh and hands that same
// *mesh.Mesh to every tenant whose pose matches, so a decoded
// FrameData.Mesh may be shared across streams. It is read-only — Clone()
// before mutating. Decoders that must edit geometry (the hybrid graft)
// write a fresh mesh instead.
package service

import (
	"fmt"
	"sync"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/metrics"
	"semholo/internal/obs"
	"semholo/internal/par"
)

// Options configures a DecodeService. The zero value of every optional
// field resolves to a working default in New.
type Options struct {
	// Model is the shared body model (immutable; required unless
	// NewDecoder is set).
	Model *body.Model
	// Resolution is the reconstruction voxel resolution handed to each
	// tenant's decoder (0 skips geometry, parameters only).
	Resolution int
	// Codec decompresses keypoint payloads (default LZR).
	Codec compress.Codec
	// WarmStart enables temporal-coherence reconstruction per stream.
	WarmStart bool
	// Cache is the pose-keyed mesh LRU shared by all tenants; nil creates
	// one with CacheCapacity entries.
	Cache *avatar.MeshCache
	// CacheCapacity sizes the created cache (<= 0: avatar default).
	CacheCapacity int
	// Pool is the shared worker budget; nil creates one sized to
	// GOMAXPROCS.
	Pool *par.Pool
	// MaxWorkersPerDecode caps one frame's pool grant (<= 0: the pool
	// capacity). Lowering it trades single-stream latency for admission
	// rate under load.
	MaxWorkersPerDecode int
	// InFlightPerTenant caps concurrent Decode calls per tenant
	// (default 1); excess callers block, so a bursty stream queues
	// against itself instead of against other tenants.
	InFlightPerTenant int
	// Counters receives reconstruction/cache telemetry for all tenants;
	// nil creates a shared instance (exposed via Counters()).
	Counters *metrics.ReconCounters
	// FieldStats receives SDF field-evaluation telemetry (samples, exact
	// capsule tests, culling-bin stats) for all tenants; nil creates a
	// shared instance (exposed via FieldStats()).
	FieldStats *metrics.FieldCounters
	// Unpruned disables the capsule culling grid in every tenant's
	// reconstructor (ablation knob; output is byte-identical either way).
	Unpruned bool
	// Registry, when set, receives per-tenant queue depth, decode
	// latency, and frame counters plus the shared cache counters.
	Registry *obs.Registry
	// Site is the byte identifying this service instance in hop records
	// appended to traced frames (zero is fine for a single service).
	Site byte
	// NewDecoder overrides per-tenant decoder construction (it must
	// return a fresh decoder per call; decoders are stateful). The
	// default builds a core.KeypointDecoder wired to the shared model,
	// codec, cache, and counters.
	NewDecoder func(Options) core.Decoder
}

// workerSetter is the optional decoder capability the service uses to
// bind each frame's pool grant.
type workerSetter interface{ SetWorkers(int) }

// DecodeService reconstructs N concurrent avatar streams in one process
// over shared immutable kernels and one worker pool. Admit a tenant per
// stream, feed it raw frames (StreamCtx.Decode or StreamCtx.Serve), and
// Detach when the stream ends. All methods are safe for concurrent use;
// the service owns no goroutines, so tearing it down leaks nothing.
type DecodeService struct {
	opt        Options
	pool       *par.Pool
	cache      *avatar.MeshCache
	counters   *metrics.ReconCounters
	fieldStats *metrics.FieldCounters

	queueDepth *obs.GaugeVec
	latency    *obs.HistogramVec
	frames     *obs.CounterVec

	mu      sync.Mutex
	tenants map[string]*StreamCtx
	closed  bool
}

// New builds a DecodeService, resolving defaults: LZR codec, a
// GOMAXPROCS-sized pool, a shared mesh cache, and shared counters.
func New(opt Options) *DecodeService {
	if opt.Codec == nil {
		opt.Codec = compress.LZR()
	}
	s := &DecodeService{
		opt:        opt,
		pool:       opt.Pool,
		cache:      opt.Cache,
		counters:   opt.Counters,
		fieldStats: opt.FieldStats,
		tenants:    make(map[string]*StreamCtx),
	}
	if s.pool == nil {
		s.pool = par.NewPool(0)
	}
	if s.counters == nil {
		s.counters = &metrics.ReconCounters{}
	}
	if s.fieldStats == nil {
		s.fieldStats = &metrics.FieldCounters{}
	}
	if s.cache == nil {
		s.cache = &avatar.MeshCache{Capacity: opt.CacheCapacity}
	}
	if s.cache.Counters == nil {
		s.cache.Counters = s.counters
	}
	if reg := opt.Registry; reg != nil {
		s.counters.Register(reg)
		s.fieldStats.Register(reg)
		s.queueDepth = reg.Gauge("semholo_service_queue_depth",
			"Raw frames in flight (queued or decoding), per tenant.", "tenant")
		s.latency = reg.Histogram("semholo_service_decode_seconds",
			"Per-tenant decode latency (queueing + reconstruction).", nil, "tenant")
		s.frames = reg.Counter("semholo_service_frames_total",
			"Decoded media frames per tenant.", "tenant")
		reg.GaugeFunc("semholo_service_tenants",
			"Currently admitted tenants.",
			func() float64 { return float64(s.TenantCount()) })
		reg.GaugeFunc("semholo_service_pool_in_use",
			"Worker slots currently reserved from the shared pool.",
			func() float64 { return float64(s.pool.InUse()) })
	}
	return s
}

// newDecoder builds one tenant's stateful decoder over the shared
// kernels.
func (s *DecodeService) newDecoder() core.Decoder {
	if s.opt.NewDecoder != nil {
		return s.opt.NewDecoder(s.opt)
	}
	return &core.KeypointDecoder{
		Model:      s.opt.Model,
		Codec:      s.opt.Codec,
		Resolution: s.opt.Resolution,
		WarmStart:  s.opt.WarmStart,
		Cache:      s.cache,
		Counters:   s.counters,
		FieldStats: s.fieldStats,
		Unpruned:   s.opt.Unpruned,
	}
}

// Admit registers a tenant and returns its stream context. Admission
// allocates only per-stream state (decoder scratch, warm-start band);
// the kernels, cache, and pool are shared. The id must be unique among
// live tenants.
func (s *DecodeService) Admit(id string) (*StreamCtx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("service: decode service closed")
	}
	if _, ok := s.tenants[id]; ok {
		return nil, fmt.Errorf("service: tenant %q already admitted", id)
	}
	inflight := s.opt.InFlightPerTenant
	if inflight <= 0 {
		inflight = 1
	}
	st := &StreamCtx{
		id:     id,
		svc:    s,
		dec:    s.newDecoder(),
		tokens: make(chan struct{}, inflight),
	}
	s.tenants[id] = st
	return st, nil
}

// Detach removes a tenant. In-flight decodes finish; subsequent Decode
// calls on its StreamCtx fail. Detaching an unknown id is a no-op.
func (s *DecodeService) Detach(id string) {
	s.mu.Lock()
	st := s.tenants[id]
	delete(s.tenants, id)
	s.mu.Unlock()
	if st != nil {
		st.detached.Store(true)
	}
}

// Close detaches every tenant and rejects future admissions.
func (s *DecodeService) Close() {
	s.mu.Lock()
	s.closed = true
	for id, st := range s.tenants {
		st.detached.Store(true)
		delete(s.tenants, id)
	}
	s.mu.Unlock()
}

// TenantCount returns the number of currently admitted tenants.
func (s *DecodeService) TenantCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// Pool exposes the shared worker budget.
func (s *DecodeService) Pool() *par.Pool { return s.pool }

// Cache exposes the shared pose-keyed mesh cache.
func (s *DecodeService) Cache() *avatar.MeshCache { return s.cache }

// Counters exposes the shared reconstruction telemetry.
func (s *DecodeService) Counters() *metrics.ReconCounters { return s.counters }

// FieldStats exposes the shared SDF field-evaluation telemetry.
func (s *DecodeService) FieldStats() *metrics.FieldCounters { return s.fieldStats }

// fairShare is the pool grant one decode asks for: an equal split of the
// capacity across active tenants (at least one slot), clamped by
// MaxWorkersPerDecode. With one tenant this is the whole machine — a
// solo stream on a service runs exactly as wide as a solo Receiver.
func (s *DecodeService) fairShare() int {
	n := s.TenantCount()
	if n < 1 {
		n = 1
	}
	want := s.pool.Capacity() / n
	if want < 1 {
		want = 1
	}
	if max := s.opt.MaxWorkersPerDecode; max > 0 && want > max {
		want = max
	}
	return want
}
