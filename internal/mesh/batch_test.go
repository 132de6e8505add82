package mesh

// Tests for the batched dense extractor: a BatchField must extract
// byte-identically to the same field evaluated point-by-point, at every
// worker count.

import (
	"reflect"
	"testing"
)

func TestDenseBatchMatchesScalar(t *testing.T) {
	field := twoBlobSDF()
	grid := testGrid(24)
	for _, workers := range []int{1, 2, 4} {
		want := ExtractIsosurfaceParallel(field, grid, workers)
		got := ExtractIsosurfaceBatch(batchOf(field), grid, workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: batched dense mesh differs from scalar dense mesh", workers)
		}
	}
}
