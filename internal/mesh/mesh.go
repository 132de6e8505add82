// Package mesh implements the triangle-mesh substrate: construction,
// normals, area/volume integrals, marching-cubes isosurface extraction,
// simplification, subdivision, and a compact text serialization. Meshes are
// the "traditional" holographic content representation that SemHolo's
// semantic pipelines are compared against, and the output format of the
// keypoint-based reconstruction path.
package mesh

import (
	"fmt"
	"math"

	"semholo/internal/geom"
)

// Face is a triangle referencing three vertex indices, counter-clockwise
// when viewed from outside the surface.
type Face struct {
	A, B, C int
}

// Mesh is an indexed triangle mesh. Normals and UVs are optional; when
// present they are per-vertex and parallel to Vertices.
type Mesh struct {
	Vertices []geom.Vec3
	Normals  []geom.Vec3
	UVs      []geom.Vec2
	Faces    []Face
}

// Clone returns a deep copy of m.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{
		Vertices: append([]geom.Vec3(nil), m.Vertices...),
		Faces:    append([]Face(nil), m.Faces...),
	}
	if m.Normals != nil {
		c.Normals = append([]geom.Vec3(nil), m.Normals...)
	}
	if m.UVs != nil {
		c.UVs = append([]geom.Vec2(nil), m.UVs...)
	}
	return c
}

// Validate checks structural invariants: every face references valid
// vertices and attribute arrays are either absent or parallel.
func (m *Mesh) Validate() error {
	n := len(m.Vertices)
	for i, f := range m.Faces {
		if f.A < 0 || f.A >= n || f.B < 0 || f.B >= n || f.C < 0 || f.C >= n {
			return fmt.Errorf("mesh: face %d references out-of-range vertex (%d,%d,%d) with %d vertices", i, f.A, f.B, f.C, n)
		}
		if f.A == f.B || f.B == f.C || f.A == f.C {
			return fmt.Errorf("mesh: face %d is degenerate (%d,%d,%d)", i, f.A, f.B, f.C)
		}
	}
	if m.Normals != nil && len(m.Normals) != n {
		return fmt.Errorf("mesh: %d normals for %d vertices", len(m.Normals), n)
	}
	if m.UVs != nil && len(m.UVs) != n {
		return fmt.Errorf("mesh: %d UVs for %d vertices", len(m.UVs), n)
	}
	return nil
}

// Bounds returns the axis-aligned bounding box of all vertices.
func (m *Mesh) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, v := range m.Vertices {
		b = b.Extend(v)
	}
	return b
}

// FaceNormal returns the (unit) geometric normal of face i.
func (m *Mesh) FaceNormal(i int) geom.Vec3 {
	f := m.Faces[i]
	a, b, c := m.Vertices[f.A], m.Vertices[f.B], m.Vertices[f.C]
	return b.Sub(a).Cross(c.Sub(a)).Normalize()
}

// FaceArea returns the area of face i.
func (m *Mesh) FaceArea(i int) float64 {
	f := m.Faces[i]
	a, b, c := m.Vertices[f.A], m.Vertices[f.B], m.Vertices[f.C]
	return 0.5 * b.Sub(a).Cross(c.Sub(a)).Len()
}

// FaceCentroid returns the centroid of face i.
func (m *Mesh) FaceCentroid(i int) geom.Vec3 {
	f := m.Faces[i]
	return m.Vertices[f.A].Add(m.Vertices[f.B]).Add(m.Vertices[f.C]).Scale(1.0 / 3.0)
}

// SurfaceArea returns the total surface area.
func (m *Mesh) SurfaceArea() float64 {
	var s float64
	for i := range m.Faces {
		s += m.FaceArea(i)
	}
	return s
}

// Volume returns the signed enclosed volume via the divergence theorem.
// It is only meaningful for closed, consistently oriented meshes.
func (m *Mesh) Volume() float64 {
	var v float64
	for _, f := range m.Faces {
		a, b, c := m.Vertices[f.A], m.Vertices[f.B], m.Vertices[f.C]
		v += a.Dot(b.Cross(c))
	}
	return v / 6
}

// ComputeNormals fills m.Normals with area-weighted vertex normals.
func (m *Mesh) ComputeNormals() {
	normals := make([]geom.Vec3, len(m.Vertices))
	for _, f := range m.Faces {
		a, b, c := m.Vertices[f.A], m.Vertices[f.B], m.Vertices[f.C]
		// Unnormalized cross product weights by twice the face area.
		n := b.Sub(a).Cross(c.Sub(a))
		normals[f.A] = normals[f.A].Add(n)
		normals[f.B] = normals[f.B].Add(n)
		normals[f.C] = normals[f.C].Add(n)
	}
	for i := range normals {
		normals[i] = normals[i].Normalize()
	}
	m.Normals = normals
}

// Transform applies a rigid/affine transform to all vertices (and rotates
// normals with the linear part, if present).
func (m *Mesh) Transform(t geom.Mat4) {
	for i, v := range m.Vertices {
		m.Vertices[i] = t.TransformPoint(v)
	}
	if m.Normals != nil {
		lin := t.Mat3()
		for i, n := range m.Normals {
			m.Normals[i] = lin.MulVec(n).Normalize()
		}
	}
}

// edgeKey identifies an undirected edge.
type edgeKey struct{ lo, hi int }

func mkEdge(a, b int) edgeKey {
	if a < b {
		return edgeKey{a, b}
	}
	return edgeKey{b, a}
}

// EdgeCount returns the number of distinct undirected edges.
func (m *Mesh) EdgeCount() int {
	edges := make(map[edgeKey]struct{}, len(m.Faces)*3/2)
	for _, f := range m.Faces {
		edges[mkEdge(f.A, f.B)] = struct{}{}
		edges[mkEdge(f.B, f.C)] = struct{}{}
		edges[mkEdge(f.C, f.A)] = struct{}{}
	}
	return len(edges)
}

// BoundaryEdges returns the number of edges used by exactly one face.
// Zero means the mesh is watertight (closed).
func (m *Mesh) BoundaryEdges() int {
	count := make(map[edgeKey]int, len(m.Faces)*3/2)
	for _, f := range m.Faces {
		count[mkEdge(f.A, f.B)]++
		count[mkEdge(f.B, f.C)]++
		count[mkEdge(f.C, f.A)]++
	}
	boundary := 0
	for _, c := range count {
		if c == 1 {
			boundary++
		}
	}
	return boundary
}

// IsWatertight reports whether every edge is shared by exactly two faces.
func (m *Mesh) IsWatertight() bool {
	count := make(map[edgeKey]int, len(m.Faces)*3/2)
	for _, f := range m.Faces {
		count[mkEdge(f.A, f.B)]++
		count[mkEdge(f.B, f.C)]++
		count[mkEdge(f.C, f.A)]++
	}
	for _, c := range count {
		if c != 2 {
			return false
		}
	}
	return len(count) > 0
}

// EulerCharacteristic returns V − E + F (2 for a sphere-topology mesh).
func (m *Mesh) EulerCharacteristic() int {
	return len(m.Vertices) - m.EdgeCount() + len(m.Faces)
}

// SamplePoints samples approximately n points uniformly over the surface
// using a deterministic low-discrepancy scheme (per-face stratification
// proportional to area). The rng-free determinism keeps experiment runs
// reproducible. The per-face counts are floors of a running total that
// ends at n, so at most n points come back, in one allocation of n.
func (m *Mesh) SamplePoints(n int) []geom.Vec3 {
	total := m.SurfaceArea()
	if total <= 0 || n <= 0 {
		return nil
	}
	pts := make([]geom.Vec3, 0, n)
	carry := 0.0
	seq := 0
	for i, f := range m.Faces {
		want := m.FaceArea(i)/total*float64(n) + carry
		k := int(want)
		carry = want - float64(k)
		a, b, c := m.Vertices[f.A], m.Vertices[f.B], m.Vertices[f.C]
		for j := 0; j < k; j++ {
			// Halton-style (base 2, 3) barycentric samples.
			u := halton(seq, 2)
			v := halton(seq, 3)
			seq++
			if u+v > 1 {
				u, v = 1-u, 1-v
			}
			p := a.Scale(1 - u - v).Add(b.Scale(u)).Add(c.Scale(v))
			pts = append(pts, p)
		}
	}
	return pts
}

func halton(i, base int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// UnitSphere generates a watertight unit-sphere mesh by subdividing an
// icosahedron `level` times and projecting to the sphere. Used pervasively
// in tests and as a primitive for the procedural human body.
func UnitSphere(level int) *Mesh {
	// Icosahedron.
	t := (1 + math.Sqrt(5)) / 2
	verts := []geom.Vec3{
		{X: -1, Y: t}, {X: 1, Y: t}, {X: -1, Y: -t}, {X: 1, Y: -t},
		{Y: -1, Z: t}, {Y: 1, Z: t}, {Y: -1, Z: -t}, {Y: 1, Z: -t},
		{X: t, Z: -1}, {X: t, Z: 1}, {X: -t, Z: -1}, {X: -t, Z: 1},
	}
	faces := []Face{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	}
	m := &Mesh{Vertices: verts, Faces: faces}
	for i := range m.Vertices {
		m.Vertices[i] = m.Vertices[i].Normalize()
	}
	for l := 0; l < level; l++ {
		m = m.SubdivideMidpoint()
		for i := range m.Vertices {
			m.Vertices[i] = m.Vertices[i].Normalize()
		}
	}
	m.ComputeNormals()
	return m
}

// SubdivideMidpoint performs one round of 1:4 midpoint subdivision,
// sharing midpoint vertices between adjacent faces.
func (m *Mesh) SubdivideMidpoint() *Mesh {
	out := &Mesh{Vertices: append([]geom.Vec3(nil), m.Vertices...)}
	mid := make(map[edgeKey]int)
	midpoint := func(a, b int) int {
		k := mkEdge(a, b)
		if idx, ok := mid[k]; ok {
			return idx
		}
		idx := len(out.Vertices)
		out.Vertices = append(out.Vertices, m.Vertices[a].Lerp(m.Vertices[b], 0.5))
		mid[k] = idx
		return idx
	}
	out.Faces = make([]Face, 0, len(m.Faces)*4)
	for _, f := range m.Faces {
		ab := midpoint(f.A, f.B)
		bc := midpoint(f.B, f.C)
		ca := midpoint(f.C, f.A)
		out.Faces = append(out.Faces,
			Face{f.A, ab, ca},
			Face{f.B, bc, ab},
			Face{f.C, ca, bc},
			Face{ab, bc, ca},
		)
	}
	return out
}

// Merge appends other's geometry into m, offsetting face indices.
func (m *Mesh) Merge(other *Mesh) {
	off := len(m.Vertices)
	m.Vertices = append(m.Vertices, other.Vertices...)
	for _, f := range other.Faces {
		m.Faces = append(m.Faces, Face{f.A + off, f.B + off, f.C + off})
	}
	switch {
	case m.Normals != nil && other.Normals != nil:
		m.Normals = append(m.Normals, other.Normals...)
	case m.Normals != nil:
		m.Normals = nil // attribute no longer parallel; drop it
	}
	switch {
	case m.UVs != nil && other.UVs != nil:
		m.UVs = append(m.UVs, other.UVs...)
	case m.UVs != nil:
		m.UVs = nil
	}
}

// CompactVertices removes vertices not referenced by any face, remapping
// face indices. Attribute arrays are compacted in parallel.
func (m *Mesh) CompactVertices() {
	used := make([]bool, len(m.Vertices))
	for _, f := range m.Faces {
		used[f.A], used[f.B], used[f.C] = true, true, true
	}
	remap := make([]int, len(m.Vertices))
	next := 0
	for i, u := range used {
		if u {
			remap[i] = next
			m.Vertices[next] = m.Vertices[i]
			if m.Normals != nil {
				m.Normals[next] = m.Normals[i]
			}
			if m.UVs != nil {
				m.UVs[next] = m.UVs[i]
			}
			next++
		}
	}
	m.Vertices = m.Vertices[:next]
	if m.Normals != nil {
		m.Normals = m.Normals[:next]
	}
	if m.UVs != nil {
		m.UVs = m.UVs[:next]
	}
	for i, f := range m.Faces {
		m.Faces[i] = Face{remap[f.A], remap[f.B], remap[f.C]}
	}
}
