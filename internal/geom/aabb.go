package geom

import "math"

// AABB is an axis-aligned bounding box. The zero value is the "empty" box
// (Min > Max), ready to be extended with Extend.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns a box that contains nothing; extending it with any
// point produces a degenerate box at that point.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// NewAABB returns the box spanning the two corner points in any order.
func NewAABB(a, b Vec3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Extend returns the box grown to include p.
func (b AABB) Extend(p Vec3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Contains reports whether p lies inside (or on the boundary of) b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Center returns the box center.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extents per axis.
func (b AABB) Size() Vec3 {
	if b.IsEmpty() {
		return Vec3{}
	}
	return b.Max.Sub(b.Min)
}

// Expand grows the box by margin on every side.
func (b AABB) Expand(margin float64) AABB {
	m := Vec3{margin, margin, margin}
	return AABB{Min: b.Min.Sub(m), Max: b.Max.Add(m)}
}

// Intersects reports whether b and o overlap.
func (b AABB) Intersects(o AABB) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// ClosestPoint returns the point inside b nearest to p.
func (b AABB) ClosestPoint(p Vec3) Vec3 {
	return Vec3{
		clamp(p.X, b.Min.X, b.Max.X),
		clamp(p.Y, b.Min.Y, b.Max.Y),
		clamp(p.Z, b.Min.Z, b.Max.Z),
	}
}

// DistSq returns the squared distance from p to the box (0 when inside).
func (b AABB) DistSq(p Vec3) float64 {
	return b.ClosestPoint(p).DistSq(p)
}
