package mesh

import (
	"math"
	"testing"

	"semholo/internal/geom"
)

// twoBlobSDF is a smooth union of two spheres, asymmetric along every
// axis.
func twoBlobSDF() ScalarField {
	c1, r1 := geom.V3(-0.4, 0.1, -0.3), 0.55
	c2, r2 := geom.V3(0.5, -0.2, 0.35), 0.4
	return func(p geom.Vec3) float64 {
		a := p.Dist(c1) - r1
		b := p.Dist(c2) - r2
		// Polynomial smooth minimum, k = 0.1.
		const k = 0.1
		h := geom.Clamp(0.5+0.5*(b-a)/k, 0, 1)
		return b + (a-b)*h - k*h*(1-h)
	}
}

func testGrid(res int) GridSpec {
	return GridSpec{
		Bounds:     geom.NewAABB(geom.V3(-1.2, -1.1, -1.3), geom.V3(1.3, 1.1, 1.2)),
		Resolution: res,
	}
}

// TestExtractIsosurfaceMatchesLegacySerial pins the dense extractor to
// the original single-pass algorithm's invariants on a sphere:
// watertight, valid, correct area.
func TestExtractIsosurfaceMatchesLegacySerial(t *testing.T) {
	grid := GridSpec{
		Bounds:     geom.NewAABB(geom.V3(-1.5, -1.5, -1.5), geom.V3(1.5, 1.5, 1.5)),
		Resolution: 24,
	}
	m := ExtractIsosurface(sphereSDF(geom.Vec3{}, 1), grid)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsWatertight() {
		t.Errorf("not watertight (%d boundary edges)", m.BoundaryEdges())
	}
	if a := m.SurfaceArea(); math.Abs(a-4*math.Pi)/(4*math.Pi) > 0.12 {
		t.Errorf("area %v, want ≈ %v", a, 4*math.Pi)
	}
}
