package mesh

import (
	"reflect"
	"testing"

	"semholo/internal/geom"
)

// batchOf adapts a ScalarField to BatchField, its EvalBatch delegating
// to the function point by point.
type batchOf ScalarField

func (f batchOf) Eval(p geom.Vec3) float64 { return f(p) }

func (f batchOf) EvalBatch(pts []geom.Vec3, out []float64) {
	for i, p := range pts {
		out[i] = f(p)
	}
}

// twoBlobSeeds are interior points of twoBlobSDF's two spheres.
var twoBlobSeeds = []geom.Vec3{geom.V3(-0.4, 0.1, -0.3), geom.V3(0.5, -0.2, 0.35)}

// TestSparseBatchMatchesScalar: when every surface component is seeded,
// the narrow-band extractor — batched evaluation, polygonization in
// lattice scan order — reproduces the serial dense extraction of the
// same scalar field byte for byte, at every worker count.
func TestSparseBatchMatchesScalar(t *testing.T) {
	field := twoBlobSDF()
	for _, res := range []int{20, 28, 36} {
		grid := testGrid(res)
		dense := ExtractIsosurface(field, grid)
		for _, workers := range []int{1, 3} {
			sparse := ExtractIsosurfaceSparse(batchOf(field), grid, twoBlobSeeds, workers)
			if !reflect.DeepEqual(sparse, dense) {
				t.Fatalf("res %d workers %d: sparse %dv/%df vs dense %dv/%df", res, workers,
					len(sparse.Vertices), len(sparse.Faces), len(dense.Vertices), len(dense.Faces))
			}
		}
	}
}

// TestExtractIsosurfaceSparseParallelDeterministic is the narrow-band
// determinism regression: worker count must not change the output at all.
func TestExtractIsosurfaceSparseParallelDeterministic(t *testing.T) {
	field := batchOf(twoBlobSDF())
	grid := testGrid(36)
	serial := ExtractIsosurfaceSparse(field, grid, twoBlobSeeds, 1)
	if len(serial.Faces) == 0 {
		t.Fatal("serial sparse extraction produced no faces")
	}
	if err := serial.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 9} {
		got := ExtractIsosurfaceSparse(field, grid, twoBlobSeeds, workers)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d sparse output differs from serial: %d/%d vertices, %d/%d faces",
				workers, len(got.Vertices), len(serial.Vertices), len(got.Faces), len(serial.Faces))
		}
	}
}

// TestSparseMatchesDenseGeometry checks that the narrow-band extractor
// recovers the same surface as the dense sweep (same lattice, same field
// ⇒ same vertex set up to ordering), including on an anchored grid.
func TestSparseMatchesDenseGeometry(t *testing.T) {
	field := twoBlobSDF()
	for _, grid := range []GridSpec{testGrid(28), {Bounds: testGrid(28).Bounds, Cell: 1.0 / 11}} {
		dense := ExtractIsosurface(field, grid)
		sparse := ExtractIsosurfaceSparse(batchOf(field), grid, twoBlobSeeds, 1)
		if len(sparse.Vertices) != len(dense.Vertices) || len(sparse.Faces) != len(dense.Faces) {
			t.Fatalf("sparse %dv/%df vs dense %dv/%df",
				len(sparse.Vertices), len(sparse.Faces), len(dense.Vertices), len(dense.Faces))
		}
		// Same vertex set, order-insensitively: every sparse vertex must
		// appear in the dense extraction exactly.
		seen := make(map[geom.Vec3]int)
		for _, v := range dense.Vertices {
			seen[v]++
		}
		for _, v := range sparse.Vertices {
			if seen[v] == 0 {
				t.Fatalf("sparse vertex %v missing from dense extraction", v)
			}
			seen[v]--
		}
	}
}

// TestAnchoredGridBitwiseStableAcrossBounds pins the anchoring property
// Cell grids promise: the same world lattice point, reached through two
// grids with different bounds, has bitwise-identical coordinates.
func TestAnchoredGridBitwiseStableAcrossBounds(t *testing.T) {
	cell := 1.0 / 24
	a, ok := GridSpec{Bounds: geom.NewAABB(geom.V3(-1, -1, -1), geom.V3(1, 1, 1)), Cell: cell}.layout()
	if !ok {
		t.Fatal("layout a failed")
	}
	b, ok := GridSpec{Bounds: geom.NewAABB(geom.V3(-0.63, -0.91, -0.77), geom.V3(1.13, 0.89, 0.99)), Cell: cell}.layout()
	if !ok {
		t.Fatal("layout b failed")
	}
	sa, sb := newSlabMesh(a), newSlabMesh(b)
	// Walk a shared region and compare points at equal global coords.
	for gk := 0; gk < 4; gk++ {
		for gj := 0; gj < 4; gj++ {
			for gi := 0; gi < 4; gi++ {
				pa := sa.latticePoint(gi-a.base[0], gj-a.base[1], gk-a.base[2])
				pb := sb.latticePoint(gi-b.base[0], gj-b.base[1], gk-b.base[2])
				if pa != pb {
					t.Fatalf("global (%d,%d,%d): %v != %v", gi, gj, gk, pa, pb)
				}
			}
		}
	}
}
