package avatar

import (
	"math"
	"sync/atomic"

	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
)

// Reconstructor turns body parameters into a surface mesh by evaluating
// an implicit signed-distance field (a smooth union of posed bone
// capsules) on a voxel grid of the given resolution and polygonizing the
// zero level set. Resolution is the number of cells along the longest
// body axis — the direct analogue of X-Avatar's output-resolution knob
// (128/256/512/1024 in §4.1).
//
// The grid is anchored to a world lattice whose spacing derives from the
// rest-pose body (not the per-frame posed bounds), so the same world
// point samples at bitwise-identical coordinates in every frame and a
// pose's mesh does not depend on how far its bounds reach.
//
// Reconstruct extracts every frame's surface from scratch; Skin (the
// decoders' path) extracts the rest-pose surface once and poses it per
// frame by linear blend skinning. Reconstruct is the extraction kernel
// Figures 2 and 4 measure, and Skin's canonical pass runs it.
//
// A Reconstructor reuses per-frame scratch (capsule buffers, seeds) and
// caches the canonical surface, so it must not be called from multiple
// goroutines concurrently (extraction and skinning still parallelize
// internally per Workers). Changing Model, Resolution or SmoothK
// rebuilds the canonical surface on the next Skin.
type Reconstructor struct {
	Model *body.Model
	// Resolution of the voxel grid along the longest axis.
	Resolution int
	// SmoothK is the smooth-union blending radius (meters); 0 uses a
	// default that hides capsule seams without fattening limbs.
	SmoothK float64
	// Workers bounds extraction and skinning parallelism: 0 uses
	// GOMAXPROCS, 1 forces the serial path. Output is byte-identical for
	// every worker count (the field is pure, the extractors merge
	// deterministically, and every skinned vertex is independent).
	Workers int

	// WarmStart has no effect: every extraction is cold. Kept because
	// bench/ sets it.
	WarmStart bool
	// Cache, when non-nil, short-circuits Reconstruct and Skin for
	// repeated poses with a bounded LRU of shared, read-only meshes.
	Cache *MeshCache
	// Counters, when non-nil, receives frame counts and the lattice
	// samples each extraction evaluated (the mesh LRU reports through
	// the cache's own Counters field); a skinned frame evaluates none.
	Counters *metrics.ReconCounters

	// Per-frame scratch, reused across frames.
	cell      float64 // cached rest-pose lattice spacing
	bgScratch boneGeometry
	seedBuf   []geom.Vec3
	lastRes   int
	lastK     float64

	// Skin state: the canonical surface and the per-frame joint
	// transforms (see skin.go).
	canon    canonicalSurface
	skinMats [body.NumJoints]geom.Mat4
}

// smoothMin blends two distances with blending radius k (polynomial
// smooth minimum; exact min when k→0). When the operands are at least k
// apart the blend is exact: smoothMin(a, b, k) == min(a, b).
func smoothMin(a, b, k float64) float64 {
	if k <= 0 {
		return math.Min(a, b)
	}
	h := geom.Clamp(0.5+0.5*(b-a)/k, 0, 1)
	return b + (a-b)*h - k*h*(1-h)
}

// boneGeometry captures the posed capsules for one frame.
type boneGeometry struct {
	a, b   []geom.Vec3 // segment endpoints
	radius []float64
}

// posedBonesInto rebuilds the capsule set for p into bg's backing arrays.
func (r *Reconstructor) posedBonesInto(bg boneGeometry, p *body.Params) boneGeometry {
	g := r.Model.JointGlobals(p)
	pos := body.JointPositions(&g)
	bg.a, bg.b, bg.radius = bg.a[:0], bg.b[:0], bg.radius[:0]
	for j := 1; j < body.NumJoints; j++ {
		parent := body.Joint(j).Parent()
		bg.a = append(bg.a, pos[parent])
		bg.b = append(bg.b, pos[j])
		bg.radius = append(bg.radius, r.Model.Skeleton.Radii[j])
	}
	// Head ellipsoid approximated by an extra capsule above the head
	// joint (matching the template's dedicated head geometry).
	headR := r.Model.Skeleton.Radii[body.Head]
	headC := pos[body.Head].Add(geom.V3(0, headR*0.35, 0))
	bg.a = append(bg.a, headC.Sub(geom.V3(0, headR*0.35, 0)))
	bg.b = append(bg.b, headC.Add(geom.V3(0, headR*0.35, 0)))
	bg.radius = append(bg.radius, headR)
	return bg
}

func (r *Reconstructor) posedBones(p *body.Params) boneGeometry {
	return r.posedBonesInto(boneGeometry{}, p)
}

// maxBones bounds the stack-allocated per-sample distance scratch; the
// skeleton has body.NumJoints capsules (56 bones + 1 head).
const maxBones = 64

// frameField is the canonical per-frame SDF: the smooth union of the
// posed bone capsules, folded over the "relevant set" — the bones whose
// capsule distance is within SmoothK of the exact minimum — in bone
// order. Bones outside that set cannot perturb the polynomial smooth
// minimum (smoothMin(a, b, k) == a exactly when b ≥ a+k), so the fold's
// value is a function of the relevant distances alone.
type frameField struct {
	cur boneGeometry
	k   float64

	// evaluated counts this frame's samples for Counters.
	evaluated atomic.Uint64
}

// Eval is the field at q, counted as one evaluated sample.
func (f *frameField) Eval(q geom.Vec3) float64 {
	f.evaluated.Add(1)
	return f.fold(q)
}

// EvalBatch fills out[i] with the field at pts[i] and counts the chunk
// once, so the narrow-band extractor's workers do not contend on the
// counter per sample.
func (f *frameField) EvalBatch(pts []geom.Vec3, out []float64) {
	for i, q := range pts {
		out[i] = f.fold(q)
	}
	f.evaluated.Add(uint64(len(pts)))
}

// fold is the smooth union over every capsule.
func (f *frameField) fold(q geom.Vec3) float64 {
	n := len(f.cur.a)
	if n == 0 {
		// No capsules: the field is empty space everywhere. +Inf (rather
		// than a sentinel magnitude) so callers comparing against real
		// distances cannot mistake it for geometry.
		return math.Inf(1)
	}
	var buf [maxBones]float64
	ds := buf[:]
	if n > maxBones {
		ds = make([]float64, n)
	}
	m1 := math.Inf(1)
	for i := 0; i < n; i++ {
		di := geom.SegDist(q, f.cur.a[i], f.cur.b[i]) - f.cur.radius[i]
		ds[i] = di
		if di < m1 {
			m1 = di
		}
	}
	// Start from a large finite distance: +Inf would make the smooth-min
	// blend produce Inf·0 = NaN.
	v := 1e9
	for i := 0; i < n; i++ {
		if ds[i] < m1+f.k {
			v = smoothMin(v, ds[i], f.k)
		}
	}
	return v
}

func (r *Reconstructor) smoothK() float64 {
	if r.SmoothK == 0 {
		return 0.015
	}
	return r.SmoothK
}

// cellSize returns the lattice spacing: the rest-pose body's longest
// bounding-box axis (with the same 0.2 m margin the per-frame grid uses)
// divided by Resolution. Deriving it from the rest pose instead of the
// posed bounds keeps the lattice identical across frames.
func (r *Reconstructor) cellSize() float64 {
	if r.cell == 0 {
		rest := r.posedBones(&body.Params{})
		b := capsuleBounds(rest)
		r.cell = b.Expand(0.2).Size().MaxComponent() / float64(r.Resolution)
	}
	return r.cell
}

func capsuleBounds(bg boneGeometry) geom.AABB {
	b := geom.EmptyAABB()
	for i := range bg.a {
		b = b.Extend(bg.a[i]).Extend(bg.b[i])
	}
	return b
}

// gridFor returns the sampling lattice covering the posed body.
func (r *Reconstructor) gridFor(bg boneGeometry) mesh.GridSpec {
	return mesh.GridSpec{
		Bounds:     capsuleBounds(bg).Expand(0.2),
		Resolution: r.Resolution,
		Cell:       r.cellSize(),
	}
}

// Reconstruct produces the output mesh for one frame of parameters.
//
// With Cache set, repeated poses return the cached mesh without
// reconstructing — the returned mesh is then shared with every other
// caller of that pose and read-only: Clone() before mutating. It is
// byte-identical to a fresh reconstruction of the same parameters.
func (r *Reconstructor) Reconstruct(p *body.Params) *mesh.Mesh {
	if r.Cache != nil {
		return r.Cache.getOrCompute(p, r, false)
	}
	return r.reconstruct(p)
}

func (r *Reconstructor) reconstruct(p *body.Params) *mesh.Mesh {
	if r.Model == nil || r.Resolution <= 0 {
		return &mesh.Mesh{}
	}
	// Geometry-affecting knobs changed → the cached lattice spacing no
	// longer describes this field; drop it.
	if r.lastRes != r.Resolution || r.lastK != r.smoothK() {
		r.cell = 0
		r.lastRes, r.lastK = r.Resolution, r.smoothK()
	}

	bg := r.posedBonesInto(r.bgScratch, p)
	r.bgScratch = bg
	if len(bg.a) == 0 {
		// A model with no bones has no surface; bail before the seed
		// march would try to walk rays toward one.
		return &mesh.Mesh{}
	}
	f := &frameField{cur: bg, k: r.smoothK()}
	grid := r.gridFor(bg)

	// Seeds are the bone midpoints; the extractor marches them to the
	// surface along lattice axes.
	seeds := r.seedBuf[:0]
	for i := range bg.a {
		seeds = append(seeds, bg.a[i].Lerp(bg.b[i], 0.5))
	}
	r.seedBuf = seeds
	m := mesh.ExtractIsosurfaceSparse(f, grid, seeds, r.Workers)
	r.Counters.AddFrame(int(f.evaluated.Load()))
	return m
}
