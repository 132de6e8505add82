package mesh

import (
	"math"
	"testing"

	"semholo/internal/geom"
)

func sphereSDF(center geom.Vec3, r float64) ScalarField {
	return func(p geom.Vec3) float64 { return p.Dist(center) - r }
}

func TestIsosurfaceSphere(t *testing.T) {
	grid := GridSpec{
		Bounds:     geom.NewAABB(geom.V3(-1.5, -1.5, -1.5), geom.V3(1.5, 1.5, 1.5)),
		Resolution: 32,
	}
	m := ExtractIsosurface(sphereSDF(geom.Vec3{}, 1), grid)
	if len(m.Faces) == 0 {
		t.Fatal("no faces extracted")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid mesh: %v", err)
	}
	if !m.IsWatertight() {
		t.Errorf("sphere isosurface not watertight (%d boundary edges)", m.BoundaryEdges())
	}
	// Every vertex must be near the true surface (within a cell diagonal).
	cell := 3.0 / 32
	for _, v := range m.Vertices {
		if d := math.Abs(v.Len() - 1); d > cell*math.Sqrt(3) {
			t.Fatalf("vertex %v at distance %v from surface", v, d)
		}
	}
	// Area and volume approach the analytic values.
	if a := m.SurfaceArea(); math.Abs(a-4*math.Pi)/(4*math.Pi) > 0.10 {
		t.Errorf("area = %v, want ≈ %v", a, 4*math.Pi)
	}
	if v := m.Volume(); math.Abs(v-4*math.Pi/3)/(4*math.Pi/3) > 0.10 {
		t.Errorf("volume = %v, want ≈ %v (positive ⇒ outward orientation)", v, 4*math.Pi/3)
	}
	if m.Volume() < 0 {
		t.Error("negative volume: triangles oriented inward")
	}
}

func TestIsosurfaceResolutionConvergence(t *testing.T) {
	grid := func(res int) GridSpec {
		return GridSpec{
			Bounds:     geom.NewAABB(geom.V3(-1.5, -1.5, -1.5), geom.V3(1.5, 1.5, 1.5)),
			Resolution: res,
		}
	}
	errAt := func(res int) float64 {
		m := ExtractIsosurface(sphereSDF(geom.Vec3{}, 1), grid(res))
		return math.Abs(m.Volume() - 4*math.Pi/3)
	}
	e16, e48 := errAt(16), errAt(48)
	if e48 >= e16 {
		t.Errorf("volume error did not shrink with resolution: res16=%v res48=%v", e16, e48)
	}
}

func TestIsosurfaceEmptyField(t *testing.T) {
	grid := GridSpec{
		Bounds:     geom.NewAABB(geom.V3(-1, -1, -1), geom.V3(1, 1, 1)),
		Resolution: 8,
	}
	all := func(p geom.Vec3) float64 { return 1 } // everywhere outside
	m := ExtractIsosurface(all, grid)
	if len(m.Faces) != 0 {
		t.Errorf("extracted %d faces from empty field", len(m.Faces))
	}
	none := func(p geom.Vec3) float64 { return -1 } // everywhere inside
	m = ExtractIsosurface(none, grid)
	if len(m.Faces) != 0 {
		t.Errorf("extracted %d faces from full field", len(m.Faces))
	}
}

func TestIsosurfaceDegenerateGrid(t *testing.T) {
	m := ExtractIsosurface(sphereSDF(geom.Vec3{}, 1), GridSpec{})
	if len(m.Faces) != 0 || len(m.Vertices) != 0 {
		t.Error("degenerate grid produced geometry")
	}
}

func TestIsosurfaceTwoBlobs(t *testing.T) {
	// Union of two disjoint spheres: two components, still watertight.
	f := func(p geom.Vec3) float64 {
		d1 := p.Dist(geom.V3(-1, 0, 0)) - 0.5
		d2 := p.Dist(geom.V3(1, 0, 0)) - 0.5
		return math.Min(d1, d2)
	}
	grid := GridSpec{
		Bounds:     geom.NewAABB(geom.V3(-2, -1, -1), geom.V3(2, 1, 1)),
		Resolution: 40,
	}
	m := ExtractIsosurface(f, grid)
	if !m.IsWatertight() {
		t.Error("two-blob surface not watertight")
	}
	// Volume ≈ 2 spheres of r=0.5.
	want := 2 * 4 * math.Pi / 3 * 0.125
	if v := m.Volume(); math.Abs(v-want)/want > 0.15 {
		t.Errorf("volume = %v, want ≈ %v", v, want)
	}
}

func BenchmarkIsosurfaceRes32(b *testing.B) {
	grid := GridSpec{
		Bounds:     geom.NewAABB(geom.V3(-1.5, -1.5, -1.5), geom.V3(1.5, 1.5, 1.5)),
		Resolution: 32,
	}
	f := sphereSDF(geom.Vec3{}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractIsosurface(f, grid)
	}
}
