// Package pointcloud implements the point-cloud substrate: colored point
// sets, a k-d tree for nearest-neighbor queries, voxel-grid downsampling,
// statistical outlier removal, and multi-view RGB-D
// fusion. Point clouds are one of the two traditional volumetric content
// representations (§2.1) and the output format of the text-based semantic
// reconstruction path (Table 1).
package pointcloud

import (
	"fmt"
	"math"

	"semholo/internal/geom"
)

// Color is an RGB color with components in [0,1].
type Color struct {
	R, G, B float64
}

// Dist returns the Euclidean distance in RGB space.
func (c Color) Dist(o Color) float64 {
	dr, dg, db := c.R-o.R, c.G-o.G, c.B-o.B
	return math.Sqrt(dr*dr + dg*dg + db*db)
}

// Cloud is a point cloud with optional per-point colors and normals.
// Attribute slices are either nil or parallel to Points.
type Cloud struct {
	Points  []geom.Vec3
	Colors  []Color
	Normals []geom.Vec3
}

// New returns an empty cloud with capacity for n points.
func New(n int) *Cloud {
	return &Cloud{Points: make([]geom.Vec3, 0, n)}
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// Validate checks that attribute arrays are absent or parallel.
func (c *Cloud) Validate() error {
	if c.Colors != nil && len(c.Colors) != len(c.Points) {
		return fmt.Errorf("pointcloud: %d colors for %d points", len(c.Colors), len(c.Points))
	}
	if c.Normals != nil && len(c.Normals) != len(c.Points) {
		return fmt.Errorf("pointcloud: %d normals for %d points", len(c.Normals), len(c.Points))
	}
	return nil
}

// Clone returns a deep copy.
func (c *Cloud) Clone() *Cloud {
	out := &Cloud{Points: append([]geom.Vec3(nil), c.Points...)}
	if c.Colors != nil {
		out.Colors = append([]Color(nil), c.Colors...)
	}
	if c.Normals != nil {
		out.Normals = append([]geom.Vec3(nil), c.Normals...)
	}
	return out
}

// Append adds a point with optional attributes. Passing attributes to a
// cloud that has none (or vice versa) upgrades/keeps arrays consistent by
// filling previous entries with zero values.
func (c *Cloud) Append(p geom.Vec3, col *Color, n *geom.Vec3) {
	c.Points = append(c.Points, p)
	if col != nil {
		if c.Colors == nil {
			c.Colors = make([]Color, len(c.Points)-1)
		}
		c.Colors = append(c.Colors, *col)
	} else if c.Colors != nil {
		c.Colors = append(c.Colors, Color{})
	}
	if n != nil {
		if c.Normals == nil {
			c.Normals = make([]geom.Vec3, len(c.Points)-1)
		}
		c.Normals = append(c.Normals, *n)
	} else if c.Normals != nil {
		c.Normals = append(c.Normals, geom.Vec3{})
	}
}

// Bounds returns the axis-aligned bounding box.
func (c *Cloud) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, p := range c.Points {
		b = b.Extend(p)
	}
	return b
}

// Centroid returns the mean point, or zero for an empty cloud.
func (c *Cloud) Centroid() geom.Vec3 {
	if len(c.Points) == 0 {
		return geom.Vec3{}
	}
	var s geom.Vec3
	for _, p := range c.Points {
		s = s.Add(p)
	}
	return s.Scale(1 / float64(len(c.Points)))
}

// Merge appends other into c.
func (c *Cloud) Merge(other *Cloud) {
	base := len(c.Points)
	c.Points = append(c.Points, other.Points...)
	mergeAttr := func(mine *[]Color, theirs []Color) {
		switch {
		case *mine != nil && theirs != nil:
			*mine = append(*mine, theirs...)
		case *mine != nil:
			*mine = append(*mine, make([]Color, len(other.Points))...)
		case theirs != nil:
			*mine = append(make([]Color, base), theirs...)
		}
	}
	mergeAttr(&c.Colors, other.Colors)
	switch {
	case c.Normals != nil && other.Normals != nil:
		c.Normals = append(c.Normals, other.Normals...)
	case c.Normals != nil:
		c.Normals = append(c.Normals, make([]geom.Vec3, len(other.Points))...)
	case other.Normals != nil:
		c.Normals = append(make([]geom.Vec3, base), other.Normals...)
	}
}

// VoxelDownsample returns a cloud with at most one point per voxel of the
// given size: the centroid of each voxel's points (attributes averaged).
func (c *Cloud) VoxelDownsample(voxel float64) *Cloud {
	if voxel <= 0 || len(c.Points) == 0 {
		return c.Clone()
	}
	type key struct{ x, y, z int32 }
	type acc struct {
		p     geom.Vec3
		col   Color
		n     geom.Vec3
		count int
		order int
	}
	cells := make(map[key]*acc)
	var ordered []*acc
	for i, p := range c.Points {
		k := key{
			int32(math.Floor(p.X / voxel)),
			int32(math.Floor(p.Y / voxel)),
			int32(math.Floor(p.Z / voxel)),
		}
		a, ok := cells[k]
		if !ok {
			a = &acc{order: len(ordered)}
			cells[k] = a
			ordered = append(ordered, a)
		}
		a.p = a.p.Add(p)
		if c.Colors != nil {
			a.col.R += c.Colors[i].R
			a.col.G += c.Colors[i].G
			a.col.B += c.Colors[i].B
		}
		if c.Normals != nil {
			a.n = a.n.Add(c.Normals[i])
		}
		a.count++
	}
	out := New(len(ordered))
	if c.Colors != nil {
		out.Colors = make([]Color, 0, len(ordered))
	}
	if c.Normals != nil {
		out.Normals = make([]geom.Vec3, 0, len(ordered))
	}
	for _, a := range ordered {
		inv := 1 / float64(a.count)
		out.Points = append(out.Points, a.p.Scale(inv))
		if c.Colors != nil {
			out.Colors = append(out.Colors, Color{a.col.R * inv, a.col.G * inv, a.col.B * inv})
		}
		if c.Normals != nil {
			out.Normals = append(out.Normals, a.n.Normalize())
		}
	}
	return out
}

// RemoveStatisticalOutliers drops points whose mean distance to their k
// nearest neighbors exceeds the global mean by more than stddevMul
// standard deviations — the standard filter applied when merging RGB-D
// views (§2.1, "synchronization, calibration, and filtering").
func (c *Cloud) RemoveStatisticalOutliers(k int, stddevMul float64) *Cloud {
	n := len(c.Points)
	if n == 0 || k <= 0 {
		return c.Clone()
	}
	if k >= n {
		k = n - 1
	}
	if k == 0 {
		return c.Clone()
	}
	tree := NewKDTree(c.Points)
	meanDist := make([]float64, n)
	for i, p := range c.Points {
		nbrs := tree.KNearest(p, k+1) // includes the point itself
		var s float64
		cnt := 0
		for _, nb := range nbrs {
			if nb.Index == i {
				continue
			}
			s += math.Sqrt(nb.DistSq)
			cnt++
		}
		if cnt > 0 {
			meanDist[i] = s / float64(cnt)
		}
	}
	var mu float64
	for _, d := range meanDist {
		mu += d
	}
	mu /= float64(n)
	var sigma float64
	for _, d := range meanDist {
		sigma += (d - mu) * (d - mu)
	}
	sigma = math.Sqrt(sigma / float64(n))
	thresh := mu + stddevMul*sigma

	out := New(n)
	if c.Colors != nil {
		out.Colors = make([]Color, 0, n)
	}
	if c.Normals != nil {
		out.Normals = make([]geom.Vec3, 0, n)
	}
	for i, p := range c.Points {
		if meanDist[i] > thresh {
			continue
		}
		out.Points = append(out.Points, p)
		if c.Colors != nil {
			out.Colors = append(out.Colors, c.Colors[i])
		}
		if c.Normals != nil {
			out.Normals = append(out.Normals, c.Normals[i])
		}
	}
	return out
}
