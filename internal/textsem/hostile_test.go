package textsem

import (
	"fmt"
	"strings"
	"testing"
)

// hostileDoc is a keyframe document with one cell line per count, each
// in its own region along x.
func hostileDoc(t *testing.T, counts ...int) Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("G|a person standing; centroid 0 0 0; 10 points\n")
	for i, n := range counts {
		fmt.Fprintf(&sb, "C|region %d 0 0 holds %d points near 0 0 0 spread 0.1 0.1 0.1 colored 0.5 0.5 0.5\n", i, n)
	}
	doc, err := UnmarshalDocument([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestGenerateRejectsNegativeCount: a negative count would cancel a huge
// one in the budget's total, so the huge cell is generated unscaled —
// 40 000 points against a budget of 20 000. Negative counts are refused.
func TestGenerateRejectsNegativeCount(t *testing.T) {
	doc := hostileDoc(t, 40000, -39999)
	cloud, err := Generator{}.Generate(doc)
	if err == nil {
		t.Fatalf("negative count accepted: %d points generated against a budget of 20000", cloud.Len())
	}
}

// TestGenerateRejectsOverflowingTotal: three counts whose sum wraps to a
// positive total would be scaled by a budget ratio computed from the
// wrapped sum, not from what the cells declare. A total that overflows
// is refused.
func TestGenerateRejectsOverflowingTotal(t *testing.T) {
	// 3 × 7686143364045646507 = 2^64 + 2^62 + 1: wraps to 2^62 + 1.
	const c = 7686143364045646507
	doc := hostileDoc(t, c, c, c)
	cloud, err := Generator{}.Generate(doc)
	if err == nil {
		t.Fatalf("overflowing total accepted: %d points generated", cloud.Len())
	}
}

// TestCellCoordinatesOutsideInt8Rejected: a coordinate outside int8
// used to be truncated into another cell (region 300 0 0 became cell
// 44), in keyframe cell lines, delta cell lines and removal lines alike.
func TestCellCoordinatesOutsideInt8Rejected(t *testing.T) {
	const cell = "region 300 0 0 holds 5 points near 0 0 0 spread 0.1 0.1 0.1 colored 0.5 0.5 0.5"
	if doc, err := UnmarshalDocument([]byte("G|g; centroid 0 0 0; 5 points\nC|" + cell + "\n")); err == nil {
		t.Errorf("keyframe cell at x=300 accepted as %v", doc.Cells)
	}
	if u, err := UnmarshalUpdate([]byte("C|" + cell + "\n")); err == nil {
		t.Errorf("delta cell at x=300 accepted as %v", u.Changed)
	}
	if u, err := UnmarshalUpdate([]byte("R|300 0 0\n")); err == nil {
		t.Errorf("removal of x=300 accepted as %v", u.Removed)
	}
	if _, err := parseCell(cell); err == nil {
		t.Error("parseCell accepted x=300")
	}
	// The int8 range itself stays valid.
	edge := "region -128 127 0 holds 5 points near 0 0 0 spread 0.1 0.1 0.1 colored 0.5 0.5 0.5"
	if u, err := UnmarshalUpdate([]byte("C|" + edge + "\nR|-128 127 0\n")); err != nil || u.Removed[0] != (CellID{-128, 127, 0}) {
		t.Errorf("edge of the grid refused: %v", err)
	}
}
