// Package geom provides the 3D math substrate used throughout SemHolo:
// vectors, matrices, quaternions, bounding boxes, rays, and pinhole camera
// models. Everything is implemented with float64 for numerical robustness;
// the hot rendering and reconstruction paths operate on values, never
// pointers, so the compiler can keep them in registers.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2D vector, used for image-plane coordinates and texture UVs.
type Vec2 struct {
	X, Y float64
}

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return Vec2{x, y} }

// Add returns a + b.
func (a Vec2) Add(b Vec2) Vec2 { return Vec2{a.X + b.X, a.Y + b.Y} }

// Sub returns a - b.
func (a Vec2) Sub(b Vec2) Vec2 { return Vec2{a.X - b.X, a.Y - b.Y} }

// Scale returns a * s.
func (a Vec2) Scale(s float64) Vec2 { return Vec2{a.X * s, a.Y * s} }

// Dot returns the dot product a · b.
func (a Vec2) Dot(b Vec2) float64 { return a.X*b.X + a.Y*b.Y }

// Len returns the Euclidean length of a.
func (a Vec2) Len() float64 { return math.Hypot(a.X, a.Y) }

// Dist returns the Euclidean distance between a and b.
func (a Vec2) Dist(b Vec2) float64 { return a.Sub(b).Len() }

// Normalize returns a unit vector in the direction of a, or the zero
// vector when a is (numerically) zero.
func (a Vec2) Normalize() Vec2 {
	l := a.Len()
	if l < 1e-300 {
		return Vec2{}
	}
	return Vec2{a.X / l, a.Y / l}
}

// Lerp linearly interpolates between a (t=0) and b (t=1).
func (a Vec2) Lerp(b Vec2, t float64) Vec2 {
	return Vec2{a.X + (b.X-a.X)*t, a.Y + (b.Y-a.Y)*t}
}

func (a Vec2) String() string { return fmt.Sprintf("(%.4g, %.4g)", a.X, a.Y) }

// Vec3 is a 3D vector: positions, directions, colors, keypoints.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Mul returns the component-wise product of a and b.
func (a Vec3) Mul(b Vec3) Vec3 { return Vec3{a.X * b.X, a.Y * b.Y, a.Z * b.Z} }

// Dot returns the dot product a · b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a × b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean length of a.
func (a Vec3) Len() float64 { return math.Sqrt(a.LenSq()) }

// LenSq returns the squared length of a.
func (a Vec3) LenSq() float64 { return a.X*a.X + a.Y*a.Y + a.Z*a.Z }

// Dist returns the Euclidean distance between a and b.
func (a Vec3) Dist(b Vec3) float64 { return a.Sub(b).Len() }

// DistSq returns the squared Euclidean distance between a and b.
func (a Vec3) DistSq(b Vec3) float64 { return a.Sub(b).LenSq() }

// Normalize returns a unit vector in the direction of a, or the zero
// vector when a is (numerically) zero.
func (a Vec3) Normalize() Vec3 {
	l := a.Len()
	if l < 1e-300 {
		return Vec3{}
	}
	return Vec3{a.X / l, a.Y / l, a.Z / l}
}

// Neg returns -a.
func (a Vec3) Neg() Vec3 { return Vec3{-a.X, -a.Y, -a.Z} }

// Lerp linearly interpolates between a (t=0) and b (t=1).
func (a Vec3) Lerp(b Vec3, t float64) Vec3 {
	return Vec3{a.X + (b.X-a.X)*t, a.Y + (b.Y-a.Y)*t, a.Z + (b.Z-a.Z)*t}
}

// Min returns the component-wise minimum of a and b.
func (a Vec3) Min(b Vec3) Vec3 {
	return Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func (a Vec3) Max(b Vec3) Vec3 {
	return Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)}
}

// MaxComponent returns the largest component of a.
func (a Vec3) MaxComponent() float64 { return math.Max(a.X, math.Max(a.Y, a.Z)) }

// Clamp returns a with every component clamped to [lo, hi].
func (a Vec3) Clamp(lo, hi float64) Vec3 {
	return Vec3{clamp(a.X, lo, hi), clamp(a.Y, lo, hi), clamp(a.Z, lo, hi)}
}

// IsFinite reports whether all components are finite (no NaN / Inf).
func (a Vec3) IsFinite() bool {
	return !math.IsNaN(a.X) && !math.IsInf(a.X, 0) &&
		!math.IsNaN(a.Y) && !math.IsInf(a.Y, 0) &&
		!math.IsNaN(a.Z) && !math.IsInf(a.Z, 0)
}

func (a Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", a.X, a.Y, a.Z) }

// Vec4 is a homogeneous 4D vector used with Mat4.
type Vec4 struct {
	X, Y, Z, W float64
}

// V4 constructs a Vec4.
func V4(x, y, z, w float64) Vec4 { return Vec4{x, y, z, w} }

// FromVec3 lifts v into homogeneous coordinates with the given w.
func FromVec3(v Vec3, w float64) Vec4 { return Vec4{v.X, v.Y, v.Z, w} }

// Dehomogenize performs the perspective divide; it returns the zero
// vector when w is (numerically) zero.
func (a Vec4) Dehomogenize() Vec3 {
	if math.Abs(a.W) < 1e-300 {
		return Vec3{}
	}
	return Vec3{a.X / a.W, a.Y / a.W, a.Z / a.W}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp returns v clamped to [lo, hi].
func Clamp(v, lo, hi float64) float64 { return clamp(v, lo, hi) }
