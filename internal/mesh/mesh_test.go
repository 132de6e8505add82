package mesh

import (
	"math"
	"testing"

	"semholo/internal/geom"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// tetra returns a regular-ish closed tetrahedron.
func tetra() *Mesh {
	return &Mesh{
		Vertices: []geom.Vec3{
			{X: 1, Y: 1, Z: 1},
			{X: 1, Y: -1, Z: -1},
			{X: -1, Y: 1, Z: -1},
			{X: -1, Y: -1, Z: 1},
		},
		Faces: []Face{
			{0, 1, 2}, {0, 2, 3}, {0, 3, 1}, {1, 3, 2},
		},
	}
}

func TestValidate(t *testing.T) {
	m := tetra()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid mesh rejected: %v", err)
	}
	bad := &Mesh{Vertices: m.Vertices, Faces: []Face{{0, 1, 9}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range face accepted")
	}
	deg := &Mesh{Vertices: m.Vertices, Faces: []Face{{0, 0, 1}}}
	if err := deg.Validate(); err == nil {
		t.Error("degenerate face accepted")
	}
	badN := &Mesh{Vertices: m.Vertices, Faces: m.Faces, Normals: make([]geom.Vec3, 2)}
	if err := badN.Validate(); err == nil {
		t.Error("mismatched normals accepted")
	}
}

func TestTetraTopology(t *testing.T) {
	m := tetra()
	if !m.IsWatertight() {
		t.Error("closed tetrahedron not watertight")
	}
	if got := m.EdgeCount(); got != 6 {
		t.Errorf("EdgeCount = %d, want 6", got)
	}
	if got := m.BoundaryEdges(); got != 0 {
		t.Errorf("BoundaryEdges = %d, want 0", got)
	}
	if got := m.EulerCharacteristic(); got != 2 {
		t.Errorf("Euler characteristic = %d, want 2", got)
	}
}

func TestTetraVolumeOrientation(t *testing.T) {
	m := tetra()
	// Regular tetrahedron with edge length 2√2 has volume (2√2)³/(6√2) = 8/3.
	want := 8.0 / 3.0
	if v := m.Volume(); !almostEq(v, want, 1e-9) {
		t.Errorf("Volume = %v, want %v (orientation or formula wrong)", v, want)
	}
}

func TestUnitSphereGeometry(t *testing.T) {
	m := UnitSphere(3)
	if !m.IsWatertight() {
		t.Fatal("sphere not watertight")
	}
	if got := m.EulerCharacteristic(); got != 2 {
		t.Errorf("Euler characteristic = %d, want 2", got)
	}
	// Inscribed polyhedron: area and volume slightly below the analytic
	// sphere values, converging from below.
	if a := m.SurfaceArea(); !almostEq(a, 4*math.Pi, 0.1) {
		t.Errorf("SurfaceArea = %v, want ≈ %v", a, 4*math.Pi)
	}
	if v := m.Volume(); !almostEq(v, 4*math.Pi/3, 0.05) {
		t.Errorf("Volume = %v, want ≈ %v", v, 4*math.Pi/3)
	}
	// All vertices on the unit sphere.
	for _, p := range m.Vertices {
		if !almostEq(p.Len(), 1, 1e-12) {
			t.Fatalf("vertex %v off the unit sphere", p)
		}
	}
	// Normals point outward (aligned with position on a sphere).
	for i, n := range m.Normals {
		if n.Dot(m.Vertices[i]) < 0.9 {
			t.Fatalf("vertex %d normal %v not outward", i, n)
		}
	}
}

func TestSubdivideQuadruplesFaces(t *testing.T) {
	m := tetra()
	s := m.SubdivideMidpoint()
	if got := len(s.Faces); got != 4*len(m.Faces) {
		t.Errorf("faces = %d, want %d", got, 4*len(m.Faces))
	}
	if !s.IsWatertight() {
		t.Error("subdivided mesh not watertight")
	}
	// Midpoint subdivision of a flat-faced solid keeps volume identical.
	if !almostEq(s.Volume(), m.Volume(), 1e-9) {
		t.Errorf("volume changed: %v -> %v", m.Volume(), s.Volume())
	}
}

func TestComputeNormalsSphere(t *testing.T) {
	m := UnitSphere(2)
	m.Normals = nil
	m.ComputeNormals()
	for i, n := range m.Normals {
		if !almostEq(n.Len(), 1, 1e-9) {
			t.Fatalf("normal %d not unit: %v", i, n)
		}
	}
}

func TestTransform(t *testing.T) {
	m := UnitSphere(1)
	vol := m.Volume()
	m.Transform(geom.Translation(geom.V3(5, -3, 2)))
	if !almostEq(m.Volume(), vol, 1e-9) {
		t.Error("translation changed volume")
	}
	c := m.Bounds().Center()
	if c.Dist(geom.V3(5, -3, 2)) > 1e-9 {
		t.Errorf("center after translate = %v", c)
	}
}

func TestMergeOffsetsFaces(t *testing.T) {
	a, b := tetra(), tetra()
	b.Transform(geom.Translation(geom.V3(10, 0, 0)))
	nv, nf := len(a.Vertices), len(a.Faces)
	a.Merge(b)
	if len(a.Vertices) != 2*nv || len(a.Faces) != 2*nf {
		t.Fatalf("merge sizes: %d verts %d faces", len(a.Vertices), len(a.Faces))
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("merged mesh invalid: %v", err)
	}
	if a.Faces[nf].A != nv {
		t.Error("face indices not offset")
	}
}

func TestSamplePointsOnSurface(t *testing.T) {
	m := UnitSphere(2)
	pts := m.SamplePoints(500)
	if len(pts) < 400 {
		t.Fatalf("sampled only %d points", len(pts))
	}
	for _, p := range pts {
		// Samples lie on chords of the sphere, so slightly inside.
		if p.Len() > 1.0001 || p.Len() < 0.9 {
			t.Fatalf("sample %v far from surface", p)
		}
	}
}

// TestSamplePointsAllocs pins SamplePoints to one allocation of at most
// (n+1)×24 B: it reserves the n points it can return, not n plus the
// face count. n = 1024 makes n×24 B exactly a heap size class, and the
// 1280-face sphere would push the old reservation past the bound. Run on
// a non-race line (make alloc-check).
func TestSamplePointsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	const n = 1024
	m := UnitSphere(3)
	var got int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got = len(m.SamplePoints(n))
		}
	})
	if got > n {
		t.Fatalf("SamplePoints(%d) returned %d points", n, got)
	}
	if allocs, size := res.AllocsPerOp(), res.AllocedBytesPerOp(); allocs != 1 || size > (n+1)*24 {
		t.Fatalf("SamplePoints(%d) on %d faces: %d allocs, %d B/op; want 1 alloc of ≤ %d B", n, len(m.Faces), allocs, size, (n+1)*24)
	}
}

func TestCompactVertices(t *testing.T) {
	m := tetra()
	// Add an orphan vertex.
	m.Vertices = append(m.Vertices, geom.V3(99, 99, 99))
	m.ComputeNormals()
	m.CompactVertices()
	if len(m.Vertices) != 4 {
		t.Errorf("vertices after compact = %d, want 4", len(m.Vertices))
	}
	if len(m.Normals) != 4 {
		t.Errorf("normals after compact = %d, want 4", len(m.Normals))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("compact broke mesh: %v", err)
	}
}
