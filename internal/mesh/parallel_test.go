package mesh

import (
	"math"
	"reflect"
	"testing"

	"semholo/internal/geom"
)

// twoBlobSDF is a smooth union of two spheres — asymmetric along every
// axis so slab boundaries cut through real geometry.
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

// TestExtractIsosurfaceParallelDeterministic is the dense-path
// determinism regression: for every worker count the mesh must be
// byte-identical (same vertex order, same positions, same faces) to the
// serial path.
func TestExtractIsosurfaceParallelDeterministic(t *testing.T) {
	field := twoBlobSDF()
	grid := testGrid(40)
	serial := ExtractIsosurfaceParallel(field, grid, 1)
	if len(serial.Faces) == 0 {
		t.Fatal("serial extraction produced no faces")
	}
	for _, workers := range []int{2, 3, 4, 7, 16} {
		got := ExtractIsosurfaceParallel(field, grid, workers)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d output differs from serial: %d/%d vertices, %d/%d faces",
				workers, len(got.Vertices), len(serial.Vertices), len(got.Faces), len(serial.Faces))
		}
	}
}

// TestExtractIsosurfaceMatchesLegacySerial pins the refactored slab
// extractor to the original single-pass algorithm's invariants on a
// sphere: watertight, on-surface vertices, correct area.
func TestExtractIsosurfaceMatchesLegacySerial(t *testing.T) {
	grid := GridSpec{
		Bounds:     geom.NewAABB(geom.V3(-1.5, -1.5, -1.5), geom.V3(1.5, 1.5, 1.5)),
		Resolution: 24,
	}
	for _, workers := range []int{1, 4} {
		m := ExtractIsosurfaceParallel(sphereSDF(geom.Vec3{}, 1), grid, workers)
		if err := m.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !m.IsWatertight() {
			t.Errorf("workers=%d: not watertight (%d boundary edges)", workers, m.BoundaryEdges())
		}
		if a := m.SurfaceArea(); math.Abs(a-4*math.Pi)/(4*math.Pi) > 0.12 {
			t.Errorf("workers=%d: area %v, want ≈ %v", workers, a, 4*math.Pi)
		}
	}
}
