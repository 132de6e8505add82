package pointcloud

import (
	"math/rand"
	"testing"

	"semholo/internal/geom"
)

func randomCloud(n int, seed int64) *Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := New(n)
	for i := 0; i < n; i++ {
		c.Points = append(c.Points, geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	return c
}

func TestCloudBasics(t *testing.T) {
	c := New(0)
	if c.Len() != 0 {
		t.Error("new cloud not empty")
	}
	col := Color{1, 0, 0}
	c.Append(geom.V3(1, 2, 3), &col, nil)
	c.Append(geom.V3(3, 2, 1), nil, nil)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.Colors[0] != col || c.Colors[1] != (Color{}) {
		t.Errorf("colors = %v", c.Colors)
	}
	want := geom.V3(2, 2, 2)
	if got := c.Centroid(); got.Dist(want) > 1e-12 {
		t.Errorf("Centroid = %v, want %v", got, want)
	}
}

func TestMergeAttributeUpgrade(t *testing.T) {
	a := New(0)
	a.Points = append(a.Points, geom.V3(0, 0, 0))
	b := New(0)
	col := Color{0, 1, 0}
	b.Append(geom.V3(1, 1, 1), &col, nil)
	a.Merge(b)
	if err := a.Validate(); err != nil {
		t.Fatalf("merged cloud invalid: %v", err)
	}
	if a.Colors == nil || a.Colors[1] != col {
		t.Errorf("colors after merge: %v", a.Colors)
	}
}

func TestVoxelDownsample(t *testing.T) {
	c := New(0)
	// Two tight clusters far apart.
	for i := 0; i < 50; i++ {
		c.Points = append(c.Points, geom.V3(0.01*float64(i%5), 0, 0))
		c.Points = append(c.Points, geom.V3(10+0.01*float64(i%5), 0, 0))
	}
	d := c.VoxelDownsample(1.0)
	if d.Len() != 2 {
		t.Fatalf("downsampled to %d points, want 2", d.Len())
	}
	// Centroids preserved.
	if d.Points[0].X > 1 && d.Points[1].X > 1 {
		t.Error("both clusters collapsed to the same side")
	}
}

func TestVoxelDownsampleDisabled(t *testing.T) {
	c := randomCloud(20, 2)
	d := c.VoxelDownsample(0)
	if d.Len() != c.Len() {
		t.Error("voxel=0 should clone")
	}
}

func TestRemoveStatisticalOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(0)
	for i := 0; i < 300; i++ {
		// Dense unit cluster.
		c.Points = append(c.Points, geom.V3(rng.Float64(), rng.Float64(), rng.Float64()))
	}
	c.Points = append(c.Points, geom.V3(50, 50, 50)) // blatant outlier
	filtered := c.RemoveStatisticalOutliers(8, 2)
	if filtered.Len() >= c.Len() {
		t.Fatal("outlier not removed")
	}
	for _, p := range filtered.Points {
		if p.Len() > 10 {
			t.Fatalf("outlier %v survived", p)
		}
	}
}
