package mesh

import (
	"math"
	"sync"

	"semholo/internal/geom"
	"semholo/internal/par"
)

// ScalarField is a signed scalar function over 3D space. By SDF
// convention, negative values are inside the surface and positive values
// outside; the isosurface is the zero level set.
//
// Fields must be safe for concurrent calls: the parallel extractors
// evaluate lattice points from multiple goroutines. Pure functions of
// the input point (like the avatar capsule SDF) satisfy this trivially.
type ScalarField func(p geom.Vec3) float64

// GridSpec describes the sampling lattice for isosurface extraction.
// Resolution is the number of cells along the longest axis of Bounds —
// this matches the paper's "output resolution" knob (128/256/512/1024
// voxels per dimension) whose cost grows as O(Resolution³).
type GridSpec struct {
	Bounds     geom.AABB
	Resolution int

	// Cell, when > 0, fixes the lattice spacing explicitly (Resolution is
	// then ignored) and anchors the lattice to world space: Bounds.Min is
	// snapped down to an integer multiple of Cell and every lattice point
	// is computed as float64(globalIndex)·Cell. A world point shared by
	// two anchored grids is therefore bitwise-identical in both, even
	// when their bounds differ — the property the temporal-coherence
	// cache needs to reuse samples across frames whose grids drift.
	Cell float64
}

// gridLayout is a GridSpec resolved to concrete lattice parameters.
type gridLayout struct {
	nx, ny, nz int       // cells per axis
	vx, vy     int       // lattice vertices per x/y axis (nx+1, ny+1)
	cell       float64   // cube edge length
	origin     geom.Vec3 // world position of lattice vertex (0,0,0)
	base       [3]int    // origin's integer coords on the world lattice
	anchored   bool      // Cell-anchored (base meaningful) vs bounds-derived
}

// layout resolves the grid. ok is false when the spec cannot produce a
// non-empty lattice (empty bounds, or neither Cell nor Resolution set).
func (g GridSpec) layout() (l gridLayout, ok bool) {
	size := g.Bounds.Size()
	if g.Cell > 0 {
		if g.Bounds.IsEmpty() {
			return l, false
		}
		l.cell = g.Cell
		l.anchored = true
		min := [3]float64{g.Bounds.Min.X, g.Bounds.Min.Y, g.Bounds.Min.Z}
		max := [3]float64{g.Bounds.Max.X, g.Bounds.Max.Y, g.Bounds.Max.Z}
		var n [3]int
		for a := 0; a < 3; a++ {
			l.base[a] = int(math.Floor(min[a] / l.cell))
			n[a] = int(math.Ceil(max[a]/l.cell)) - l.base[a]
			if n[a] < 1 {
				n[a] = 1
			}
		}
		l.nx, l.ny, l.nz = n[0], n[1], n[2]
		l.origin = geom.Vec3{
			X: float64(l.base[0]) * l.cell,
			Y: float64(l.base[1]) * l.cell,
			Z: float64(l.base[2]) * l.cell,
		}
		l.vx, l.vy = l.nx+1, l.ny+1
		return l, true
	}
	longest := size.MaxComponent()
	if longest <= 0 || g.Resolution <= 0 {
		return l, false
	}
	l.cell = longest / float64(g.Resolution)
	dims := func(extent float64) int {
		n := int(extent/l.cell + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	l.nx, l.ny, l.nz = dims(size.X), dims(size.Y), dims(size.Z)
	l.origin = g.Bounds.Min
	l.vx, l.vy = l.nx+1, l.ny+1
	return l, true
}

// latticeEdge identifies the lattice edge an interpolated vertex lies
// on, by the linear indices of its two lattice endpoints (lo < hi).
// Edge identity is global across slabs, which is what makes the
// parallel merge deterministic.
type latticeEdge struct{ lo, hi int }

// corner offsets of a unit cube, in the conventional order.
var cubeOffsets = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
}

// Six tetrahedra sharing the body diagonal (corner 0 → corner 6).
var cubeTets = [6][4]int{
	{0, 5, 1, 6},
	{0, 1, 2, 6},
	{0, 2, 3, 6},
	{0, 3, 7, 6},
	{0, 7, 4, 6},
	{0, 4, 5, 6},
}

// slabMesh accumulates polygonization output for one contiguous range of
// z-slabs: vertices, faces over local vertex indices, and the slab-local
// map from the lattice edge a vertex lies on to its index (vertex dedup
// within the slab, and across slabs in mergeSlabs). Serial extraction
// uses a single slabMesh covering the whole grid; parallel extraction
// builds one per slab and merges them in slab order.
type slabMesh struct {
	verts  []geom.Vec3
	faces  []Face
	shared map[latticeEdge]int

	origin   geom.Vec3
	cell     float64
	vx, vy   int
	base     [3]int
	anchored bool
}

func newSlabMesh(l gridLayout) *slabMesh {
	return &slabMesh{
		shared:   make(map[latticeEdge]int),
		origin:   l.origin,
		cell:     l.cell,
		vx:       l.vx,
		vy:       l.vy,
		base:     l.base,
		anchored: l.anchored,
	}
}

func (s *slabMesh) latticePoint(i, j, k int) geom.Vec3 {
	if s.anchored {
		// Anchored grids compute coordinates from global integer lattice
		// indices so the same world point is bitwise-identical across
		// frames whose grid bounds (and hence base) differ.
		return geom.Vec3{
			X: float64(s.base[0]+i) * s.cell,
			Y: float64(s.base[1]+j) * s.cell,
			Z: float64(s.base[2]+k) * s.cell,
		}
	}
	return geom.Vec3{
		X: s.origin.X + float64(i)*s.cell,
		Y: s.origin.Y + float64(j)*s.cell,
		Z: s.origin.Z + float64(k)*s.cell,
	}
}

// lidx linearizes a lattice vertex over (vx, vy, ·); k is global, so
// indices agree across slabs.
func (s *slabMesh) lidx(i, j, k int) int { return (k*s.vy+j)*s.vx + i }

// edgeVertex returns the local index of the interpolated vertex on the
// lattice edge (la, lb), creating it on first use.
func (s *slabMesh) edgeVertex(la, lb int, pa, pb geom.Vec3, va, vb float64) int {
	key := latticeEdge{la, lb}
	if la > lb {
		key = latticeEdge{lb, la}
	}
	if idx, ok := s.shared[key]; ok {
		return idx
	}
	t := 0.5
	if d := va - vb; d != 0 {
		t = va / d
	}
	t = geom.Clamp(t, 0, 1)
	idx := len(s.verts)
	s.verts = append(s.verts, pa.Lerp(pb, t))
	s.shared[key] = idx
	return idx
}

// emit adds a triangle oriented so its normal points from inside
// (negative field) toward outside (positive field).
func (s *slabMesh) emit(a, b, c int, outward geom.Vec3) {
	pa, pb, pc := s.verts[a], s.verts[b], s.verts[c]
	n := pb.Sub(pa).Cross(pc.Sub(pa))
	if n.Dot(outward) < 0 {
		b, c = c, b
	}
	if a == b || b == c || a == c {
		return
	}
	s.faces = append(s.faces, Face{a, b, c})
}

// polygonizeCube runs marching tetrahedra on the cube at (i, j, k) whose
// corner values (cubeOffsets order) are vals.
func (s *slabMesh) polygonizeCube(vals [8]float64, i, j, k int) {
	for _, tet := range cubeTets {
		s.polygonizeTet(tet, vals, i, j, k)
	}
}

// polygonizeTet emits 0–2 triangles for one tetrahedron of a cube.
func (s *slabMesh) polygonizeTet(tet [4]int, vals [8]float64, ci, cj, ck int) {
	var inside, outside [4]int
	ni, no := 0, 0
	for _, c := range tet {
		if vals[c] < 0 {
			inside[ni] = c
			ni++
		} else {
			outside[no] = c
			no++
		}
	}
	if ni == 0 || ni == 4 {
		return
	}
	corner := func(c int) (int, geom.Vec3) {
		off := cubeOffsets[c]
		i, j, k := ci+off[0], cj+off[1], ck+off[2]
		return s.lidx(i, j, k), s.latticePoint(i, j, k)
	}
	cut := func(a, b int) int {
		la, pa := corner(a)
		lb, pb := corner(b)
		return s.edgeVertex(la, lb, pa, pb, vals[a], vals[b])
	}
	centroidOf := func(ids ...int) geom.Vec3 {
		var sum geom.Vec3
		for _, id := range ids {
			sum = sum.Add(s.verts[id])
		}
		return sum.Scale(1 / float64(len(ids)))
	}
	switch ni {
	case 1:
		in := inside[0]
		a := cut(in, outside[0])
		b := cut(in, outside[1])
		c := cut(in, outside[2])
		_, pin := corner(in)
		s.emit(a, b, c, centroidOf(a, b, c).Sub(pin))
	case 3:
		outv := outside[0]
		a := cut(inside[0], outv)
		b := cut(inside[1], outv)
		c := cut(inside[2], outv)
		_, pout := corner(outv)
		s.emit(a, b, c, pout.Sub(centroidOf(a, b, c)))
	case 2:
		i0, i1 := inside[0], inside[1]
		o0, o1 := outside[0], outside[1]
		a := cut(i0, o0)
		b := cut(i0, o1)
		c := cut(i1, o1)
		d := cut(i1, o0)
		_, p0 := corner(i0)
		_, p1 := corner(i1)
		insideMid := p0.Lerp(p1, 0.5)
		s.emit(a, b, c, centroidOf(a, b, c).Sub(insideMid))
		s.emit(a, c, d, centroidOf(a, c, d).Sub(insideMid))
	}
}

// mesh converts the accumulated slab into a Mesh, reusing the slab's
// backing arrays (valid for a single slab covering the whole grid).
func (s *slabMesh) mesh() *Mesh {
	return &Mesh{Vertices: s.verts, Faces: s.faces}
}

// slabBufPool recycles the per-slab sample planes ([]float64 of vx·vy)
// across extractions, so steady-state reconstruction loops stop
// allocating lattice scratch.
var slabBufPool sync.Pool

func getSlabBuf(n int) []float64 {
	if v := slabBufPool.Get(); v != nil {
		if buf := v.([]float64); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

func putSlabBuf(buf []float64) { slabBufPool.Put(buf) }

// polyArena is the polygonization scratch of one sparse extraction: the
// vertex and face arrays the surface is built in before being copied out
// exact-size, and the lattice-edge → vertex dedup map. Arenas are pooled
// per worker (a sync.Pool keeps one per P), not per stream, so the
// tenants of one decode service share them and an extracted mesh — which
// may live on in a cache — carries no slack capacity.
type polyArena struct {
	verts  []geom.Vec3
	faces  []Face
	shared map[latticeEdge]int
}

var polyArenaPool = sync.Pool{New: func() any {
	return &polyArena{shared: make(map[latticeEdge]int)}
}}

// ExtractIsosurface polygonizes the zero level set of field over the grid
// using marching tetrahedra. The result shares interpolated vertices along
// lattice edges, so the output is watertight wherever the surface does not
// leave the grid bounds. Cost is Θ(nx·ny·nz) field evaluations — the
// O(Resolution³) scaling that dominates the paper's Figure 4.
//
// This is the strict serial path: ExtractIsosurfaceParallel(field, grid, 1).
func ExtractIsosurface(field ScalarField, grid GridSpec) *Mesh {
	return ExtractIsosurfaceParallel(field, grid, 1)
}

// ExtractIsosurfaceParallel is ExtractIsosurface with the cell grid split
// into contiguous z-slab ranges extracted concurrently by up to workers
// goroutines (workers <= 0 means GOMAXPROCS; 1 is the serial fallback).
// Each slab polygonizes with its own vertex-dedup map; slabs are then
// merged in z order, deduplicating boundary vertices by their global
// lattice-edge key. Because cube visit order within a slab matches the
// serial scan and the merge walks slabs in ascending z, the output is
// byte-identical to the serial path for every worker count.
func ExtractIsosurfaceParallel(field ScalarField, grid GridSpec, workers int) *Mesh {
	lay, ok := grid.layout()
	if !ok {
		return &Mesh{}
	}
	ranges := par.Split(workers, lay.nz)
	slabs := make([]*slabMesh, len(ranges))
	par.For(len(ranges), len(ranges), func(c int) {
		slabs[c] = extractSlabRange(field, lay, ranges[c].Lo, ranges[c].Hi)
	})
	if len(slabs) == 1 {
		return slabs[0].mesh()
	}
	return mergeSlabs(slabs)
}

// extractSlabRange polygonizes cubes with k in [k0, k1).
func extractSlabRange(field ScalarField, lay gridLayout, k0, k1 int) *slabMesh {
	nx, ny, vx, vy := lay.nx, lay.ny, lay.vx, lay.vy
	s := newSlabMesh(lay)
	cur := getSlabBuf(vx * vy)
	next := getSlabBuf(vx * vy)
	defer putSlabBuf(cur)
	defer putSlabBuf(next)

	sampleSlab := func(k int, dst []float64) {
		for j := 0; j < vy; j++ {
			for i := 0; i < vx; i++ {
				dst[j*vx+i] = field(s.latticePoint(i, j, k))
			}
		}
	}
	sampleSlab(k0, cur)
	for k := k0; k < k1; k++ {
		sampleSlab(k+1, next)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				// Gather the cube's corner values; skip cubes the
				// surface cannot cross.
				var vals [8]float64
				anyNeg, anyPos := false, false
				for c, off := range cubeOffsets {
					var v float64
					if off[2] == 0 {
						v = cur[(j+off[1])*vx+i+off[0]]
					} else {
						v = next[(j+off[1])*vx+i+off[0]]
					}
					vals[c] = v
					if v < 0 {
						anyNeg = true
					} else {
						anyPos = true
					}
				}
				if !anyNeg || !anyPos {
					continue
				}
				s.polygonizeCube(vals, i, j, k)
			}
		}
		cur, next = next, cur
	}
	return s
}

// mergeSlabs concatenates slab meshes in z order into one Mesh,
// deduplicating vertices shared across slab boundaries by lattice-edge
// key. Vertex and face order match a serial full-grid extraction.
func mergeSlabs(slabs []*slabMesh) *Mesh {
	totalV, totalF := 0, 0
	for _, s := range slabs {
		totalV += len(s.verts)
		totalF += len(s.faces)
	}
	out := &Mesh{
		Vertices: make([]geom.Vec3, 0, totalV),
		Faces:    make([]Face, 0, totalF),
	}
	global := make(map[latticeEdge]int, totalV)
	for _, s := range slabs {
		keys := make([]latticeEdge, len(s.verts))
		for key, li := range s.shared {
			keys[li] = key
		}
		remap := make([]int, len(s.verts))
		for li, key := range keys {
			if gi, ok := global[key]; ok {
				remap[li] = gi
				continue
			}
			gi := len(out.Vertices)
			out.Vertices = append(out.Vertices, s.verts[li])
			global[key] = gi
			remap[li] = gi
		}
		for _, f := range s.faces {
			out.Faces = append(out.Faces, Face{remap[f.A], remap[f.B], remap[f.C]})
		}
	}
	return out
}
