package avatar

// Tests for reuse across frames: a reused Reconstructor's scratch must
// not leak into its output (the acceptance bar is byte-identical meshes,
// not approximately equal) and the pose-keyed mesh LRU.

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
)

// motionFrames samples a motion at the capture cadence the pipelines
// use, so consecutive frames carry realistic small pose deltas.
func motionFrames(m body.Motion, n int, dt float64) []*body.Params {
	out := make([]*body.Params, n)
	for i := range out {
		out[i] = m.At(float64(i) * dt)
	}
	return out
}

// TestWarmStartMatchesColdAcrossMotion: one reused Reconstructor
// replaying a 50-frame motion sequence must produce meshes byte-identical
// to a fresh Reconstructor per frame, at several worker counts. This pins
// the scratch a Reconstructor keeps across frames — capsule buffers and
// seeds — and that WarmStart, now inert, changes nothing.
func TestWarmStartMatchesColdAcrossMotion(t *testing.T) {
	frames := motionFrames(body.Talking(nil), 50, 1.0/30)
	for _, workers := range []int{1, 4} {
		reused := &Reconstructor{Model: fitModel, Resolution: 32, Workers: workers, WarmStart: true}
		for fi, p := range frames {
			got := reused.Reconstruct(p)
			want := (&Reconstructor{Model: fitModel, Resolution: 32, Workers: 1}).Reconstruct(p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d frame %d: reused mesh differs from fresh (%d/%d verts, %d/%d faces)",
					workers, fi, len(got.Vertices), len(want.Vertices), len(got.Faces), len(want.Faces))
			}
		}
	}
}

// TestWarmStartLargePoseJump: a jump that moves the body far across the
// lattice (new grid bounds) must leave no trace of the previous frame in
// a reused Reconstructor's output.
func TestWarmStartLargePoseJump(t *testing.T) {
	reused := &Reconstructor{Model: fitModel, Resolution: 32, WarmStart: true}
	reused.Reconstruct(body.Talking(nil).At(0))

	jumped := body.Walking(nil).At(0.5)
	jumped.Translation = geom.V3(0.8, 0, -0.5)
	got := reused.Reconstruct(jumped)
	want := (&Reconstructor{Model: fitModel, Resolution: 32}).Reconstruct(jumped)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-jump mesh of a reused Reconstructor differs from a fresh one")
	}
}

// countedField counts the points an extractor asks of f, apart from f's
// own sample counter.
type countedField struct {
	f *frameField
	n atomic.Uint64
}

func (c *countedField) Eval(q geom.Vec3) float64 {
	c.n.Add(1)
	return c.f.fold(q)
}

func (c *countedField) EvalBatch(pts []geom.Vec3, out []float64) {
	c.n.Add(uint64(len(pts)))
	for i, q := range pts {
		out[i] = c.f.fold(q)
	}
}

// TestReconstructCountsEvaluatedSamples: every extracted frame reports
// exactly the lattice samples its extraction asked of the field; none
// are ever reused.
func TestReconstructCountsEvaluatedSamples(t *testing.T) {
	var c metrics.ReconCounters
	rec := &Reconstructor{Model: fitModel, Resolution: 32, Workers: 3, Counters: &c}
	var want uint64
	for _, p := range motionFrames(body.Talking(nil), 3, 1.0/30) {
		rec.Reconstruct(p)
		// Replay the extraction on the bones and seeds it left in scratch.
		bg := rec.bgScratch
		cf := &countedField{f: &frameField{cur: bg, k: rec.smoothK()}}
		mesh.ExtractIsosurfaceSparse(cf, rec.gridFor(bg), rec.seedBuf, 1)
		want += cf.n.Load()
	}
	s := c.Snapshot()
	if s.Frames != 3 || s.SamplesReused != 0 {
		t.Fatalf("frames %d reused %d, want 3 and 0", s.Frames, s.SamplesReused)
	}
	if s.SamplesEvaluated == 0 || s.SamplesEvaluated != want {
		t.Fatalf("evaluated %d samples, extraction asked for %d", s.SamplesEvaluated, want)
	}
}

// TestReconstructCacheHitAllocs pins a cache hit through Reconstruct at
// zero allocations: the hit hands out the stored mesh itself. Run on a
// non-race line (make alloc-check).
func TestReconstructCacheHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	rec := &Reconstructor{Model: fitModel, Resolution: 32, Cache: &MeshCache{}}
	p := body.Talking(nil).At(0.7)
	first := rec.Reconstruct(p)
	if n := testing.AllocsPerRun(100, func() {
		if rec.Reconstruct(p) != first {
			t.Fatal("hit returned a different mesh")
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %.0f objects, want 0", n)
	}
	if cap(first.Vertices) != len(first.Vertices) || cap(first.Faces) != len(first.Faces) {
		t.Fatalf("cached mesh carries slack: verts %d/%d faces %d/%d",
			len(first.Vertices), cap(first.Vertices), len(first.Faces), cap(first.Faces))
	}
}

// TestMeshCacheExactByDefault: the cache keys on exact bits, so a tiny
// perturbation is a different key.
func TestMeshCacheExactByDefault(t *testing.T) {
	var c metrics.ReconCounters
	rec := &Reconstructor{Model: fitModel, Resolution: 32, Cache: &MeshCache{Counters: &c}}
	p := body.Talking(nil).At(0.7)
	rec.Reconstruct(p)
	q := *p
	q.Pose[body.Neck].X += 1e-9
	rec.Reconstruct(&q)
	if s := c.Snapshot(); s.MeshHits != 0 || s.MeshMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", s.MeshHits, s.MeshMisses)
	}
}

// TestMeshCacheLRUEviction fills the cache past DefaultMeshCacheCapacity
// with distinct poses, touching the first just before it overflows, and
// checks the least recently used entry — the second — is the one
// evicted.
func TestMeshCacheLRUEviction(t *testing.T) {
	var c metrics.ReconCounters
	rec := &Reconstructor{Model: fitModel, Resolution: 24, Cache: &MeshCache{Counters: &c}}
	poses := motionFrames(body.Talking(nil), DefaultMeshCacheCapacity+1, 1.0/30)
	for _, p := range poses[:DefaultMeshCacheCapacity] {
		rec.Skin(p)
	}
	rec.Skin(poses[0])                        // poses[0] now most recent; poses[1] is LRU
	rec.Skin(poses[DefaultMeshCacheCapacity]) // evicts poses[1]
	s := c.Snapshot()
	if s.MeshEvictions != 1 || s.MeshMisses != DefaultMeshCacheCapacity+1 || s.MeshHits != 1 {
		t.Fatalf("evictions=%d misses=%d hits=%d, want 1/%d/1", s.MeshEvictions, s.MeshMisses, s.MeshHits, DefaultMeshCacheCapacity+1)
	}

	before := c.Snapshot()
	rec.Skin(poses[0]) // still cached
	rec.Skin(poses[2]) // still cached
	rec.Skin(poses[1]) // was evicted → miss
	s = c.Snapshot()
	if s.MeshHits != before.MeshHits+2 {
		t.Error("poses 0 and 2 should have survived in the cache")
	}
	if s.MeshMisses != before.MeshMisses+1 {
		t.Error("pose 1 should have been evicted")
	}
}

// TestCacheAndWarmStartCompose: the LRU on a reused Reconstructor (with
// the inert WarmStart set, as bench/ sets it) still matches uncached
// output frame for frame, for both the miss and the hit.
func TestCacheAndWarmStartCompose(t *testing.T) {
	cached := &Reconstructor{
		Model: fitModel, Resolution: 32, WarmStart: true, Cache: &MeshCache{},
	}
	plain := &Reconstructor{Model: fitModel, Resolution: 32}
	frames := motionFrames(body.Talking(nil), 12, 1.0/30)
	// Replay each frame twice: the second hits the LRU.
	for _, p := range frames {
		a := cached.Reconstruct(p)
		b := cached.Reconstruct(p)
		c := plain.Reconstruct(p)
		if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(b, c) {
			t.Fatal("cached mesh differs from uncached")
		}
	}
}

// TestMeshCacheCrossTenantHit: a second reconstructor hitting an entry
// the first produced counts as a cross-tenant hit; the producer's own
// repeat hit does not.
func TestMeshCacheCrossTenantHit(t *testing.T) {
	var c metrics.ReconCounters
	cache := &MeshCache{Counters: &c}
	a := &Reconstructor{Model: fitModel, Resolution: 32, Cache: cache}
	b := &Reconstructor{Model: fitModel, Resolution: 32, Cache: cache}
	p := body.Talking(nil).At(0.7)

	ma := a.Reconstruct(p)
	if got := c.Snapshot().CrossTenantHits; got != 0 {
		t.Fatalf("miss counted as cross-tenant hit (%d)", got)
	}
	a.Reconstruct(p)
	if got := c.Snapshot().CrossTenantHits; got != 0 {
		t.Fatalf("same-tenant hit counted as cross-tenant (%d)", got)
	}
	mb := b.Reconstruct(p)
	if got := c.Snapshot().CrossTenantHits; got != 1 {
		t.Fatalf("cross-tenant hits = %d, want 1", got)
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatal("cross-tenant hit returned a different mesh")
	}
}

// TestMeshCacheSingleFlight: many goroutines demanding the same pose
// concurrently must trigger exactly one reconstruction — the rest are
// deduplicated onto the in-flight computation — and every caller gets
// the identical mesh.
func TestMeshCacheSingleFlight(t *testing.T) {
	const tenants = 8
	var c metrics.ReconCounters
	cache := &MeshCache{Counters: &c}
	p := body.Talking(nil).At(0.3)
	want := (&Reconstructor{Model: fitModel, Resolution: 32}).Reconstruct(p)

	meshes := make([]*mesh.Mesh, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := &Reconstructor{Model: fitModel, Resolution: 32, Cache: cache}
			meshes[i] = rec.Reconstruct(p)
		}(i)
	}
	wg.Wait()

	s := c.Snapshot()
	if s.MeshMisses != 1 {
		t.Fatalf("misses = %d, want 1 (single flight)", s.MeshMisses)
	}
	if s.MeshHits != tenants-1 {
		t.Fatalf("hits = %d, want %d", s.MeshHits, tenants-1)
	}
	if s.CrossTenantHits != tenants-1 {
		t.Fatalf("cross-tenant hits = %d, want %d", s.CrossTenantHits, tenants-1)
	}
	for i, m := range meshes {
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("tenant %d mesh differs from solo reconstruction", i)
		}
	}
}

// TestMeshCacheConcurrentDistinctPoses hammers the cache with multiple
// goroutines walking interleaved pose streams — the -race regression for
// the flights/LRU bookkeeping under real contention.
func TestMeshCacheConcurrentDistinctPoses(t *testing.T) {
	var c metrics.ReconCounters
	cache := &MeshCache{Counters: &c}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := &Reconstructor{Model: fitModel, Resolution: 24, Cache: cache}
			for i := 0; i < 12; i++ {
				p := body.Talking(nil).At(float64(i%6) * 0.1)
				if m := rec.Reconstruct(p); len(m.Vertices) == 0 {
					t.Errorf("goroutine %d frame %d: empty mesh", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Six distinct poses, none evicted: each misses exactly once.
	if s := c.Snapshot(); s.MeshMisses != 6 || s.MeshEvictions != 0 || s.MeshHits != 4*12-6 {
		t.Fatalf("misses=%d evictions=%d hits=%d, want 6/0/%d", s.MeshMisses, s.MeshEvictions, s.MeshHits, 4*12-6)
	}
}
