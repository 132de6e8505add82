package geom

// Tests pinning the point-segment kernel: SegDist must reproduce —
// bitwise — the operation sequence of the per-package copies it replaced
// (the avatar field's golden mesh digests hold only while every caller
// computes distances identically).

import (
	"math"
	"math/rand"
	"testing"
)

// legacySegDist is the implementation previously duplicated in
// internal/avatar (segDist) and internal/body (pointSegmentDist),
// preserved verbatim as the bitwise reference.
func legacySegDist(p, a, b Vec3) float64 {
	ab := b.Sub(a)
	l2 := ab.LenSq()
	if l2 < 1e-18 {
		return p.Dist(a)
	}
	t := Clamp(p.Sub(a).Dot(ab)/l2, 0, 1)
	return p.Dist(a.Add(ab.Scale(t)))
}

func randVec(rng *rand.Rand, scale float64) Vec3 {
	return Vec3{
		X: (rng.Float64()*2 - 1) * scale,
		Y: (rng.Float64()*2 - 1) * scale,
		Z: (rng.Float64()*2 - 1) * scale,
	}
}

func TestSegDistMatchesLegacyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		a := randVec(rng, 2)
		b := randVec(rng, 2)
		if trial%7 == 0 {
			b = a // exercise the degenerate-segment branch
		}
		p := randVec(rng, 3)
		if trial%5 == 0 {
			p = a.Lerp(b, rng.Float64()) // on-segment points (distance ~0)
		}
		got := SegDist(p, a, b)
		want := legacySegDist(p, a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: SegDist(%v, %v, %v) = %x, legacy = %x",
				trial, p, a, b, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// BenchmarkSegDist guards the dedup: the shared kernel must cost the
// same as the per-package copies it replaced.
func BenchmarkSegDist(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Vec3, 1024)
	for i := range pts {
		pts[i] = randVec(rng, 2)
	}
	a, c := Vec3{-0.3, 0.1, 0}, Vec3{0.4, 0.9, 0.2}
	b.Run("shared", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += SegDist(pts[i&1023], a, c)
		}
		_ = sink
	})
	b.Run("legacy", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += legacySegDist(pts[i&1023], a, c)
		}
		_ = sink
	})
}
