package avatar

// Tests for the temporal-coherence layer: warm-start determinism (the
// acceptance bar is byte-identical meshes, not approximately equal),
// the pose-keyed mesh LRU, and quantization behavior at bucket edges.

import (
	"reflect"
	"sync"
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

// TestWarmStartMatchesColdAcrossMotion is the tentpole regression test:
// a warm-started reconstructor replaying a 50-frame motion sequence must
// produce meshes byte-identical to cold reconstructions of every frame,
// at several worker counts (including counts that differ between the
// warm and cold runs — the output may depend on neither warmth nor
// scheduling).
func TestWarmStartMatchesColdAcrossMotion(t *testing.T) {
	frames := motionFrames(body.Talking(nil), 50, 1.0/30)
	for _, workers := range []int{1, 4} {
		warm := &Reconstructor{Model: fitModel, Resolution: 32, Workers: workers, WarmStart: true}
		cold := &Reconstructor{Model: fitModel, Resolution: 32, Workers: 1}
		for fi, p := range frames {
			wm := warm.Reconstruct(p)
			cm := cold.Reconstruct(p)
			if !reflect.DeepEqual(wm, cm) {
				t.Fatalf("workers=%d frame %d: warm mesh differs from cold (%d/%d verts, %d/%d faces)",
					workers, fi, len(wm.Vertices), len(cm.Vertices), len(wm.Faces), len(cm.Faces))
			}
		}
	}
}

// TestWarmStartLargePoseJump exercises the re-seed path: a jump far
// larger than the band width must drop the stale band and still produce
// the cold mesh.
func TestWarmStartLargePoseJump(t *testing.T) {
	warm := &Reconstructor{Model: fitModel, Resolution: 32, WarmStart: true}
	cold := &Reconstructor{Model: fitModel, Resolution: 32}
	first := body.Talking(nil).At(0)
	warm.Reconstruct(first)

	jumped := body.Walking(nil).At(0.5)
	jumped.Translation = geom.V3(0.8, 0, -0.5)
	wm := warm.Reconstruct(jumped)
	cm := cold.Reconstruct(jumped)
	if !reflect.DeepEqual(wm, cm) {
		t.Fatal("post-jump warm mesh differs from cold")
	}
}

// TestWarmStartReusesSamples checks the perf mechanism actually engages:
// replaying a talking motion (legs and pelvis static) must satisfy a
// substantial share of lattice samples from the cross-frame cache.
func TestWarmStartReusesSamples(t *testing.T) {
	var c metrics.ReconCounters
	rec := &Reconstructor{Model: fitModel, Resolution: 32, WarmStart: true, Counters: &c}
	for _, p := range motionFrames(body.Talking(nil), 10, 1.0/30) {
		rec.Reconstruct(p)
	}
	s := c.Snapshot()
	if s.WarmFrames == 0 {
		t.Fatal("no warm frames recorded")
	}
	if s.SamplesReused == 0 {
		t.Fatalf("no samples reused (evaluated %d)", s.SamplesEvaluated)
	}
	if s.ReuseRate() < 0.1 {
		t.Errorf("reuse rate %.3f implausibly low for a talking motion", s.ReuseRate())
	}
}

// TestWarmStartIdenticalPoseReusesEverything: with a bitwise-identical
// pose, every bone is static and every lattice sample must be reused.
func TestWarmStartIdenticalPoseReusesEverything(t *testing.T) {
	var c metrics.ReconCounters
	rec := &Reconstructor{Model: fitModel, Resolution: 32, WarmStart: true, Counters: &c}
	p := body.Talking(nil).At(0.4)
	first := rec.Reconstruct(p)
	before := c.Snapshot()
	second := rec.Reconstruct(p)
	after := c.Snapshot()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("identical pose produced different meshes")
	}
	if evals := after.SamplesEvaluated - before.SamplesEvaluated; evals != 0 {
		t.Errorf("identical pose still evaluated %d samples", evals)
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

// TestMeshCacheExactByDefault: without quantization, a tiny perturbation
// is a different key.
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

// TestMeshCacheQuantizationBoundary pins the bucket edges: poses within
// half a quantization step of each other share an entry; poses across
// the rounding boundary do not.
func TestMeshCacheQuantizationBoundary(t *testing.T) {
	const q = 1e-3
	var c metrics.ReconCounters
	rec := &Reconstructor{Model: fitModel, Resolution: 32, Cache: &MeshCache{Quant: q, Counters: &c}}
	base := body.Talking(nil).At(0.7)
	base.Pose[body.Neck].X = 0.1 // exact bucket center at q=1e-3

	rec.Reconstruct(base)

	same := *base
	same.Pose[body.Neck].X = 0.1 + 0.4*q // rounds to the same bucket
	rec.Reconstruct(&same)
	if s := c.Snapshot(); s.MeshHits != 1 {
		t.Fatalf("within-bucket pose missed (hits=%d misses=%d)", s.MeshHits, s.MeshMisses)
	}

	other := *base
	other.Pose[body.Neck].X = 0.1 + 0.6*q // rounds to the next bucket
	rec.Reconstruct(&other)
	if s := c.Snapshot(); s.MeshHits != 1 || s.MeshMisses != 2 {
		t.Fatalf("cross-bucket pose hit (hits=%d misses=%d)", s.MeshHits, s.MeshMisses)
	}
}

// TestMeshCacheLRUEviction fills a capacity-2 cache with three poses and
// checks the least recently used entry is the one evicted.
func TestMeshCacheLRUEviction(t *testing.T) {
	var c metrics.ReconCounters
	cache := &MeshCache{Capacity: 2, Counters: &c}
	rec := &Reconstructor{Model: fitModel, Resolution: 32, Cache: cache}
	m := body.Talking(nil)
	p1, p2, p3 := m.At(0.1), m.At(0.5), m.At(0.9)

	rec.Reconstruct(p1)
	rec.Reconstruct(p2)
	rec.Reconstruct(p1) // p1 now most recent; p2 is LRU
	rec.Reconstruct(p3) // evicts p2
	if cache.Len() != 2 {
		t.Fatalf("cache len %d, want 2", cache.Len())
	}
	if s := c.Snapshot(); s.MeshEvictions != 1 {
		t.Fatalf("evictions=%d, want 1", s.MeshEvictions)
	}

	before := c.Snapshot()
	rec.Reconstruct(p1) // still cached
	rec.Reconstruct(p2) // was evicted → miss
	s := c.Snapshot()
	if s.MeshHits != before.MeshHits+1 {
		t.Error("p1 should have survived in the cache")
	}
	if s.MeshMisses != before.MeshMisses+1 {
		t.Error("p2 should have been evicted")
	}
}

// TestCacheAndWarmStartCompose: both layers on at once — the common
// production configuration — still matches cold output frame for frame.
func TestCacheAndWarmStartCompose(t *testing.T) {
	warm := &Reconstructor{
		Model: fitModel, Resolution: 32, WarmStart: true, Cache: &MeshCache{},
	}
	cold := &Reconstructor{Model: fitModel, Resolution: 32}
	frames := motionFrames(body.Talking(nil), 12, 1.0/30)
	// Replay each frame twice (the second hits the LRU) interleaved with
	// fresh frames (which go through the warm path after a hit skipped
	// reconstruction — the stale-band case).
	for _, p := range frames {
		a := warm.Reconstruct(p)
		b := warm.Reconstruct(p)
		c := cold.Reconstruct(p)
		if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(b, c) {
			t.Fatal("warm+cache mesh differs from cold")
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
	cache := &MeshCache{Capacity: 8}
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
	if n := cache.Len(); n == 0 || n > 8 {
		t.Fatalf("cache length %d outside (0, 8]", n)
	}
}
