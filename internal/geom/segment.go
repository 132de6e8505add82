package geom

import "math"

// SegDistSq returns the squared distance from p to the segment [a, b].
// A degenerate segment (|b-a|² below 1e-18) is treated as the point a.
//
// This is the single point-segment kernel behind every capsule distance
// in the repository — the avatar SDF fold and the skinning-weight
// assignment both call it — so its exact operation sequence is
// load-bearing: the avatar golden mesh digests hold only while every
// caller computes distances through the same instructions.
func SegDistSq(p, a, b Vec3) float64 {
	ab := b.Sub(a)
	l2 := ab.LenSq()
	if l2 < 1e-18 {
		return p.DistSq(a)
	}
	t := Clamp(p.Sub(a).Dot(ab)/l2, 0, 1)
	return p.DistSq(a.Add(ab.Scale(t)))
}

// SegDist returns the distance from p to the segment [a, b].
func SegDist(p, a, b Vec3) float64 {
	return math.Sqrt(SegDistSq(p, a, b))
}
