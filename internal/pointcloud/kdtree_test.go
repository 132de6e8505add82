package pointcloud

import (
	"math/rand"
	"sort"
	"testing"

	"semholo/internal/geom"
)

// brute-force references
func bruteNearest(pts []geom.Vec3, q geom.Vec3) Neighbor {
	best := Neighbor{Index: -1, DistSq: 1e308}
	for i, p := range pts {
		if d := p.DistSq(q); d < best.DistSq {
			best = Neighbor{Index: i, DistSq: d}
		}
	}
	return best
}

func bruteKNearest(pts []geom.Vec3, q geom.Vec3, k int) []Neighbor {
	all := make([]Neighbor, len(pts))
	for i, p := range pts {
		all[i] = Neighbor{Index: i, DistSq: p.DistSq(q)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].DistSq < all[b].DistSq })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestKDTreeNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := randomCloud(500, 11)
	tree := NewKDTree(c.Points)
	for i := 0; i < 200; i++ {
		q := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		got, ok := tree.Nearest(q)
		if !ok {
			t.Fatal("Nearest failed")
		}
		want := bruteNearest(c.Points, q)
		if got.DistSq != want.DistSq {
			t.Fatalf("query %v: got %v want %v", q, got, want)
		}
	}
}

func TestKDTreeKNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := randomCloud(300, 13)
	tree := NewKDTree(c.Points)
	for _, k := range []int{1, 5, 17, 300, 500} {
		q := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		got := tree.KNearest(q, k)
		want := bruteKNearest(c.Points, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].DistSq != want[i].DistSq {
				t.Fatalf("k=%d result %d: got distsq %v want %v", k, i, got[i].DistSq, want[i].DistSq)
			}
		}
		// Ordered nearest-first.
		for i := 1; i < len(got); i++ {
			if got[i].DistSq < got[i-1].DistSq {
				t.Fatalf("k=%d: results unordered", k)
			}
		}
	}
}

func TestKDTreeEmpty(t *testing.T) {
	tree := NewKDTree(nil)
	if _, ok := tree.Nearest(geom.Vec3{}); ok {
		t.Error("empty tree returned a neighbor")
	}
	if got := tree.KNearest(geom.Vec3{}, 3); got != nil {
		t.Error("empty tree KNearest non-nil")
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := make([]geom.Vec3, 100)
	for i := range pts {
		pts[i] = geom.V3(1, 1, 1)
	}
	tree := NewKDTree(pts)
	nb, ok := tree.Nearest(geom.V3(1, 1, 1))
	if !ok || nb.DistSq != 0 {
		t.Error("duplicate-point tree broken")
	}
	if got := tree.KNearest(geom.V3(0, 0, 0), 10); len(got) != 10 {
		t.Errorf("KNearest on duplicates returned %d", len(got))
	}
}

func BenchmarkKDTreeBuild10k(b *testing.B) {
	c := randomCloud(10000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewKDTree(c.Points)
	}
}

func BenchmarkKDTreeKNearest(b *testing.B) {
	c := randomCloud(10000, 21)
	tree := NewKDTree(c.Points)
	rng := rand.New(rand.NewSource(22))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		tree.KNearest(q, 8)
	}
}
