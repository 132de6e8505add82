package avatar

import (
	"math"

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
// point samples at bitwise-identical coordinates in every frame — the
// property the temporal-coherence cache (WarmStart, Cache) builds on.
//
// Reconstruct extracts every frame's surface from scratch; Skin (the
// decoders' path) extracts the rest-pose surface once and poses it per
// frame by linear blend skinning. Reconstruct is the extraction kernel
// Figures 2 and 4 measure, and Skin's canonical pass runs it.
//
// A Reconstructor carries cross-frame state (the warm-start band, the
// canonical surface) and must not be called from multiple goroutines
// concurrently (extraction and skinning still parallelize internally
// per Workers). Geometry-affecting knobs are re-checked each frame:
// changing Resolution, SmoothK or Dense invalidates the warm state, and
// changing Model, Resolution or SmoothK the canonical surface.
type Reconstructor struct {
	Model *body.Model
	// Resolution of the voxel grid along the longest axis.
	Resolution int
	// SmoothK is the smooth-union blending radius (meters); 0 uses a
	// default that hides capsule seams without fattening limbs.
	SmoothK float64
	// Dense forces full-grid evaluation (O(R³) field samples) instead of
	// the narrow-band sparse extraction (O(R²)); used by the ablation
	// bench to show why narrow-band evaluation is mandatory at high R.
	// The dense path always runs cold (no warm start, no sample reuse).
	// Reconstruct only: Skin's canonical pass is always narrow-band.
	Dense bool
	// Workers bounds extraction and skinning parallelism: 0 uses
	// GOMAXPROCS, 1 forces the serial path. Output is byte-identical for
	// every worker count (the field is pure, the extractors merge
	// deterministically, and every skinned vertex is independent).
	Workers int

	// WarmStart enables the temporal-coherence warm path: the previous
	// frame's surface band seeds the next frame's wavefront, and lattice
	// samples are reused wherever no nearby bone moved (an exact,
	// bitwise-sound test — the output stays byte-identical to a cold
	// reconstruction at every worker count). Reconstruct only.
	WarmStart bool
	// Cache, when non-nil, short-circuits Reconstruct and Skin for
	// repeated (optionally quantized) poses with a bounded LRU of shared,
	// read-only meshes.
	Cache *MeshCache
	// Counters, when non-nil, receives warm/cold frame counts and
	// per-sample reuse telemetry (the mesh LRU reports through the
	// cache's own Counters field); a skinned frame counts as cold.
	Counters *metrics.ReconCounters

	// Unpruned disables the capsule culling grid, forcing every field
	// sample through the full fold over all capsules. The output is
	// byte-identical either way — this knob exists for the ablation
	// bench and for isolating the pruning layer in tests.
	Unpruned bool
	// FieldStats, when non-nil, receives field-evaluation telemetry:
	// samples, exact capsule tests, and culling-bin construction stats.
	FieldStats *metrics.FieldCounters

	// Cross-frame state (WarmStart).
	cell        float64 // cached rest-pose lattice spacing
	state       *mesh.SparseState
	prevBones   boneGeometry
	bgScratch   boneGeometry
	havePrev    bool
	movedBuf    []int
	movedBoxBuf []geom.AABB
	seedBuf     []geom.Vec3
	lastRes     int
	lastK       float64
	fieldGrid   capsuleGrid // per-frame culling bins, reused across frames

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
// value is a function of the relevant distances alone. That locality is
// what makes cross-frame sample reuse sound: see Reusable.
//
// Eval returns the field value and the exact minimum capsule distance m1
// as the auxiliary datum the extractor caches per lattice sample.
type frameField struct {
	cur boneGeometry
	k   float64

	// grid, when non-nil, prunes each sample's fold to the bin's
	// candidate capsules (bitwise-identical to the full fold; see
	// fieldaccel.go). stats, when non-nil, receives sample/test counts.
	grid  *capsuleGrid
	stats *metrics.FieldCounters

	// Reuse inputs (warm frames only).
	reuse      bool
	prev       boneGeometry
	moved      []int       // bone indices whose endpoints/radius changed
	movedBoxes []geom.AABB // per moved entry: that capsule's bounds, both frames
	movedBox   geom.AABB   // union of movedBoxes
}

func (f *frameField) Eval(q geom.Vec3) (float64, float64) {
	v, aux, tests := f.eval1(q)
	f.stats.AddSamples(1, tests)
	return v, aux
}

// evalFull is the unpruned fold over every capsule.
func (f *frameField) evalFull(q geom.Vec3) (float64, float64) {
	n := len(f.cur.a)
	if n == 0 {
		// No capsules: the field is empty space everywhere. +Inf (rather
		// than a sentinel magnitude) so callers comparing against real
		// distances cannot mistake it for geometry.
		return math.Inf(1), math.Inf(1)
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
	return v, m1
}

// Reusable reports whether the previous frame's sample (val, aux=m1) at
// lattice point q is bitwise-valid this frame. It is exact:
//
//   - Every moved bone's capsule distance at q — under the OLD pose — is
//     ≥ m1+k, so the previous minimum was attained by a bone that did
//     not move, and m1 equals the minimum over the static bones (whose
//     distances are unchanged bitwise: same endpoints, same lattice
//     point thanks to grid anchoring).
//   - Every moved bone's distance under the NEW pose is also ≥ m1+k, so
//     this frame's minimum is still m1 and moved bones sit outside the
//     relevant set in both frames.
//
// The relevant set and its distances are then identical, the fold visits
// the same bones in the same order, and Eval(q) reproduces (val, aux)
// bit for bit. If any test fails we simply re-evaluate — correctness
// never depends on the reuse rate.
func (f *frameField) Reusable(q geom.Vec3, val, aux float64) bool {
	if !f.reuse {
		return false
	}
	if len(f.moved) == 0 {
		return true
	}
	t := aux + f.k
	tt := t * t
	// Cheap conservative pre-tests: a moved capsule (both frames) is
	// contained in its movedBoxes entry, so a point at least t outside a
	// box is at least t from that capsule — the exact segment distances
	// only run for the few moved bones whose box is nearby. (The box
	// shortcut requires t > 0: at t ≤ 0 a box-distance of zero proves
	// nothing about a point deep inside the capsule.)
	if t > 0 && f.movedBox.DistSq(q) >= tt {
		return true
	}
	var bin gridBin
	haveBin := false
	for mi, i := range f.moved {
		if t > 0 && f.movedBoxes[mi].DistSq(q) >= tt {
			continue
		}
		if geom.SegDist(q, f.prev.a[i], f.prev.b[i])-f.prev.radius[i] < t {
			return false
		}
		// Current-pose shortcut via the culling grid: a bone absent from
		// q's candidate bitmask has d_cur ≥ bin.upper + k everywhere in
		// the bin, so when aux ≤ bin.upper the test below is guaranteed
		// to pass — skip the exact distance. (The bin is fetched lazily:
		// most calls never get past the box pre-tests above.)
		if f.grid != nil && i < 64 {
			if !haveBin {
				_, bin = f.grid.lookup(q)
				haveBin = true
			}
			if bin.mask&(1<<uint(i)) == 0 && aux <= bin.upper {
				continue
			}
		}
		if geom.SegDist(q, f.cur.a[i], f.cur.b[i])-f.cur.radius[i] < t {
			return false
		}
	}
	return true
}

func (r *Reconstructor) smoothK() float64 {
	if r.SmoothK == 0 {
		return 0.015
	}
	return r.SmoothK
}

// Field returns the implicit SDF for the given params. The field is the
// smooth union of all bone capsules; negative inside.
//
// The returned field reuses the Reconstructor's scratch capsule buffers
// (and, when Resolution is set, its culling grid), so it is valid only
// until the next Field or Reconstruct call on r, and building it is not
// safe concurrently with other Reconstructor methods. The field itself
// is a pure function and safe for concurrent evaluation.
func (r *Reconstructor) Field(p *body.Params) mesh.ScalarField {
	bg := r.posedBonesInto(r.bgScratch, p)
	r.bgScratch = bg
	f := &frameField{cur: bg, k: r.smoothK(), stats: r.FieldStats}
	if !r.Unpruned && f.k > 0 && len(bg.a) > 0 && r.Resolution > 0 {
		r.fieldGrid.reset(bg, f.k, r.cellSize(), r.FieldStats)
		f.grid = &r.fieldGrid
	}
	return func(q geom.Vec3) float64 {
		v, _ := f.Eval(q)
		return v
	}
}

// cellSize returns the lattice spacing: the rest-pose body's longest
// bounding-box axis (with the same 0.2 m margin the per-frame grid uses)
// divided by Resolution. Deriving it from the rest pose instead of the
// posed bounds keeps the lattice identical across frames, so the
// temporal cache can match samples by global lattice coordinate.
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

// diffBones appends to moved the indices of bones whose posed geometry
// changed since prev (bitwise comparison — any rounding difference
// counts as movement), and returns the largest endpoint displacement.
func diffBones(prev, cur *boneGeometry, moved []int) ([]int, float64) {
	maxDelta := 0.0
	if len(prev.a) != len(cur.a) {
		for i := range cur.a {
			moved = append(moved, i)
		}
		return moved, math.Inf(1)
	}
	for i := range cur.a {
		if prev.a[i] == cur.a[i] && prev.b[i] == cur.b[i] && prev.radius[i] == cur.radius[i] {
			continue
		}
		moved = append(moved, i)
		if d := prev.a[i].Dist(cur.a[i]); d > maxDelta {
			maxDelta = d
		}
		if d := prev.b[i].Dist(cur.b[i]); d > maxDelta {
			maxDelta = d
		}
	}
	return moved, maxDelta
}

// warmResetCells is the pose-delta threshold, in lattice cells, beyond
// which the previous band is dropped and the frame re-seeds from bones:
// the surface has moved so far that stale band cells are pure overhead.
const warmResetCells = 3.0

// Reconstruct produces the output mesh for one frame of parameters.
//
// With Cache set, repeated (quantized) poses return the cached mesh
// without reconstructing — the returned mesh is then shared with every
// other caller of that pose and read-only: Clone() before mutating. With
// WarmStart set, consecutive frames share lattice samples and the surface
// band; both paths produce meshes byte-identical to a cold reconstruction
// of the same parameters (for Cache, of the quantized key's first-seen
// parameters).
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
	// Geometry-affecting knobs changed → the cached lattice and band no
	// longer describe this field; drop them.
	if r.lastRes != r.Resolution || r.lastK != r.smoothK() {
		r.cell = 0
		r.havePrev = false
		if r.state != nil {
			r.state.Reset()
		}
		r.lastRes, r.lastK = r.Resolution, r.smoothK()
	}

	bg := r.posedBonesInto(r.bgScratch, p)
	r.bgScratch = bg
	if len(bg.a) == 0 {
		// A model with no bones has no surface; bail before the seed
		// march would try to walk rays toward one.
		return &mesh.Mesh{}
	}
	f := &frameField{cur: bg, k: r.smoothK(), stats: r.FieldStats}
	grid := r.gridFor(bg)

	// Arm the capsule culling grid (bitwise-identical pruning; see
	// fieldaccel.go). The exact-min identity the candidate cut rests on
	// needs k > 0; at k ≤ 0 the fold degenerates anyway, so prune only
	// the normal case.
	if !r.Unpruned && f.k > 0 {
		r.fieldGrid.reset(bg, f.k, grid.Cell, r.FieldStats)
		f.grid = &r.fieldGrid
	}

	if r.Dense {
		r.Counters.AddFrame(false, 0, 0)
		return mesh.ExtractIsosurfaceBatch(f, grid, r.Workers)
	}

	// Seeds are the bone midpoints; the extractor marches them to the
	// surface along lattice axes (those marching samples land in the
	// same per-frame lattice cache the wavefront uses).
	seeds := r.seedBuf[:0]
	for i := range bg.a {
		seeds = append(seeds, bg.a[i].Lerp(bg.b[i], 0.5))
	}
	r.seedBuf = seeds

	var st *mesh.SparseState
	if r.WarmStart {
		if r.state == nil {
			r.state = &mesh.SparseState{}
		}
		st = r.state
		if r.havePrev {
			moved, maxDelta := diffBones(&r.prevBones, &bg, r.movedBuf[:0])
			r.movedBuf = moved
			if maxDelta > warmResetCells*grid.Cell {
				st.Reset()
			} else if len(moved) < len(bg.a) {
				boxes := r.movedBoxBuf[:0]
				box := geom.EmptyAABB()
				for _, i := range moved {
					bb := capsuleBox(r.prevBones, i).Union(capsuleBox(bg, i))
					boxes = append(boxes, bb)
					box = box.Union(bb)
				}
				r.movedBoxBuf = boxes
				f.reuse = true
				f.prev = r.prevBones
				f.moved = moved
				f.movedBoxes = boxes
				f.movedBox = box
			}
		}
	}

	m := mesh.ExtractIsosurfaceSparseTemporal(f, grid, seeds, r.Workers, st)

	if r.WarmStart {
		// Keep this frame's capsules for the next frame's dirty test;
		// the buffers rotate so steady state allocates nothing.
		r.prevBones, r.bgScratch = bg, r.prevBones
		r.havePrev = true
		r.Counters.AddFrame(st.Warm, st.Reused, st.Evaluated)
	} else {
		r.Counters.AddFrame(false, 0, 0)
	}
	return m
}

func capsuleBox(bg boneGeometry, i int) geom.AABB {
	return geom.EmptyAABB().Extend(bg.a[i]).Extend(bg.b[i]).Expand(bg.radius[i])
}
