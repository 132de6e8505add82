package avatar

// Pose-keyed mesh LRU: repeated poses skip reconstruction entirely. The paper's receiver runs the
// reconstruction hot path per frame and per receiver; idle avatars,
// looped motions, and multi-receiver cloud sessions all replay poses the
// cache has already paid for.

import (
	"container/list"
	"sync"

	"semholo/internal/body"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
)

// DefaultMeshCacheCapacity is the number of meshes a MeshCache holds.
const DefaultMeshCacheCapacity = 32

// MeshCache is a bounded LRU of reconstructed meshes keyed by the exact
// bits of the body parameters plus the reconstruction configuration (model,
// resolution, smoothing) and the kind of mesh (extracted by
// Reconstruct or skinned by Skin) — one cache can safely back several
// reconstructors, including differently configured ones, and never hands
// a Reconstruct caller a skinned mesh or a Skin caller an extracted one.
// All methods are safe for concurrent use; a nil *MeshCache is inert.
//
// The cache holds one copy of each mesh and hands that same *mesh.Mesh
// to every hit, every single-flight waiter and the caller that computed
// it. A returned mesh is shared and read-only: Clone it before mutating.
type MeshCache struct {
	// Counters, when non-nil, receives hit/miss/eviction telemetry.
	Counters *metrics.ReconCounters

	mu      sync.Mutex
	order   *list.List // front = most recently used; element value is *cacheEntry
	byKey   map[cacheKey]*list.Element
	flights map[cacheKey]*flight
}

type cacheKey struct {
	params body.Params
	model  *body.Model
	res    int
	smooth float64
	skin   bool
}

type cacheEntry struct {
	key  cacheKey
	mesh *mesh.Mesh
	// owner is the reconstructor that paid for this entry; a hit from any
	// other reconstructor is a cross-tenant hit (two streams sharing one
	// pose-space entry — the consolidation win of the decode service).
	owner *Reconstructor
}

// flight is one in-progress reconstruction of a key. Concurrent callers
// of the same key wait on done instead of reconstructing again; mesh is
// set before done closes.
type flight struct {
	owner *Reconstructor
	done  chan struct{}
	mesh  *mesh.Mesh
}

// keyFor binds the parameters, bit for bit, to the reconstruction
// configuration and mesh kind: a hit never substitutes a different
// pose's mesh.
func keyFor(p *body.Params, r *Reconstructor, skin bool) cacheKey {
	return cacheKey{
		params: *p,
		model:  r.Model,
		res:    r.Resolution,
		smooth: r.smoothK(),
		skin:   skin,
	}
}

// getOrCompute returns the mesh of the given kind for p under r's
// configuration, running r.skin or r.reconstruct on a miss with
// single-flight deduplication: when several streams ask for the same key
// concurrently (correlated poses across tenants), exactly one
// reconstruction runs and the rest wait for its result instead of
// duplicating the work. Hits from a reconstructor other than the entry's
// first producer count as cross-tenant hits. The returned mesh is the
// cache's own: shared and read-only.
func (c *MeshCache) getOrCompute(p *body.Params, r *Reconstructor, skin bool) *mesh.Mesh {
	key := keyFor(p, r, skin)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.Counters.AddMeshHit()
		if e.owner != r {
			c.Counters.AddCrossTenantHit()
		}
		c.mu.Unlock()
		return e.mesh
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.mesh == nil {
			// The computing caller died before publishing (panic in its
			// reconstruction); start over rather than return nothing.
			return c.getOrCompute(p, r, skin)
		}
		c.Counters.AddMeshHit()
		if f.owner != r {
			c.Counters.AddCrossTenantHit()
		}
		return f.mesh
	}
	c.Counters.AddMeshMiss()
	if c.flights == nil {
		c.flights = make(map[cacheKey]*flight)
	}
	f := &flight{owner: r, done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	var m *mesh.Mesh
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if m != nil {
			c.storeLocked(key, r, m)
			f.mesh = m
		}
		c.mu.Unlock()
		close(f.done)
	}()
	if skin {
		m = r.skin(p)
	} else {
		m = r.reconstruct(p)
	}
	return m
}

// storeLocked inserts m under key, evicting the least recently used
// entries beyond capacity. The flight registered for key keeps any other
// caller from storing it concurrently. Callers hold c.mu.
func (c *MeshCache) storeLocked(key cacheKey, owner *Reconstructor, m *mesh.Mesh) {
	if c.order == nil {
		c.order = list.New()
		c.byKey = make(map[cacheKey]*list.Element)
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, mesh: m, owner: owner})
	for c.order.Len() > DefaultMeshCacheCapacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.Counters.AddMeshEviction()
	}
}
