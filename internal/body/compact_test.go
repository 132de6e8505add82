package body

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"semholo/internal/geom"
)

// randomParams draws a frame inside every compact range: rotation-vector
// components within ±π, translation within ±10 m, coefficients within ±3.
func randomParams(rng *rand.Rand) *Params {
	u := func(lim float64) float64 { return (2*rng.Float64() - 1) * lim }
	p := &Params{Translation: geom.V3(u(10), u(10), u(10))}
	for j := range p.Pose {
		p.Pose[j] = geom.V3(u(math.Pi), u(math.Pi), u(math.Pi))
	}
	for i := range p.Shape {
		p.Shape[i] = u(3)
	}
	for i := range p.Expression {
		p.Expression[i] = u(3)
	}
	return p
}

// TestCompactPoseRoundTrip pins the quantised frame: CompactSize bytes
// behind the "BQ" magic, every value within half a step of the original
// (5e-5 rad, 0.05 mm, 5e-5), and a frame with any value out of range
// shipped as Marshal's float64 frame, which decodes exactly.
func TestCompactPoseRoundTrip(t *testing.T) {
	const (
		poseTol  = 5e-5 * (1 + 1e-9) // rad
		transTol = 5e-5 * (1 + 1e-9) // m
		coefTol  = 5e-5 * (1 + 1e-9)
	)
	rng := rand.New(rand.NewSource(3))
	frames := []*Params{Talking(nil).At(0.7), Walking(nil).At(1.3)}
	for i := 0; i < 50; i++ {
		frames = append(frames, randomParams(rng))
	}
	for n, p := range frames {
		buf := p.MarshalCompact()
		if len(buf) != CompactSize || buf[0] != 'B' || buf[1] != 'Q' {
			t.Fatalf("frame %d: %d bytes with magic %q, want %d behind \"BQ\"", n, len(buf), buf[:2], CompactSize)
		}
		q, err := UnmarshalParams(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		check := func(what string, got, want, tol float64) {
			if d := math.Abs(got - want); d > tol {
				t.Fatalf("frame %d %s: %v decoded as %v (error %.3g > %.3g)", n, what, want, got, d, tol)
			}
		}
		for j := range p.Pose {
			check("pose x", q.Pose[j].X, p.Pose[j].X, poseTol)
			check("pose y", q.Pose[j].Y, p.Pose[j].Y, poseTol)
			check("pose z", q.Pose[j].Z, p.Pose[j].Z, poseTol)
		}
		check("translation x", q.Translation.X, p.Translation.X, transTol)
		check("translation y", q.Translation.Y, p.Translation.Y, transTol)
		check("translation z", q.Translation.Z, p.Translation.Z, transTol)
		for i := range p.Shape {
			check("shape", q.Shape[i], p.Shape[i], coefTol)
		}
		for i := range p.Expression {
			check("expression", q.Expression[i], p.Expression[i], coefTol)
		}
		if !bytes.Equal(q.MarshalCompact(), buf) {
			t.Fatalf("frame %d: decoded frame re-encodes differently", n)
		}
	}
	if CompactSize != 408 {
		t.Errorf("CompactSize = %d, want 408", CompactSize)
	}

	for _, tc := range []struct {
		name string
		edit func(p *Params)
	}{
		{"shape beyond int16", func(p *Params) { p.Shape[3] = 3.5 }},
		{"pose component beyond int16", func(p *Params) { p.Pose[Head].Y = -3.3 }},
		{"translation beyond int32", func(p *Params) { p.Translation.Z = 3e5 }},
		{"NaN expression", func(p *Params) { p.Expression[0] = math.NaN() }},
	} {
		p := randomParams(rng)
		tc.edit(p)
		buf := p.MarshalCompact()
		if !bytes.Equal(buf, p.Marshal()) {
			t.Fatalf("%s: %d-byte frame is not Marshal's float64 fallback", tc.name, len(buf))
		}
		if tc.name == "NaN expression" {
			continue // NaN != NaN; the bytes above are the exactness check
		}
		q, err := UnmarshalParams(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *q != *p {
			t.Fatalf("%s: fallback frame did not decode exactly", tc.name)
		}
	}

	for _, bad := range [][]byte{{'B', 'Q'}, append((&Params{}).MarshalCompact(), 0), (&Params{}).MarshalCompact()[:CompactSize-1]} {
		if _, err := UnmarshalParams(bad); err == nil {
			t.Errorf("%d-byte compact frame accepted", len(bad))
		}
	}
}

// allocatedBytes reports the fewest bytes the heap handed out across
// three runs of fn. TotalAlloc is process-wide, so one reading can
// include a fuzzing-engine goroutine's allocations; fn's own are the
// same on every run.
func allocatedBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzUnmarshalParams feeds UnmarshalParams arbitrary bytes, seeded with
// both encodings. It must never panic or allocate more than a few KiB
// (a Params and an error), and every compact frame it accepts must
// re-encode to the same bytes.
func FuzzUnmarshalParams(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	p := randomParams(rng)
	f.Add(p.Marshal())
	f.Add(p.MarshalCompact())
	f.Add(Talking(nil).At(0.2).MarshalCompact())
	f.Add((&Params{}).MarshalCompact())
	f.Add([]byte("BQ"))
	f.Add([]byte{})
	f.Add(make([]byte, CompactSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		var q *Params
		var err error
		if alloc := allocatedBytes(func() { q, err = UnmarshalParams(data) }); alloc > 4<<10 {
			t.Fatalf("%d-byte frame allocated %d B, ceiling 4 KiB", len(data), alloc)
		}
		if err != nil || data[1] != 'Q' {
			return
		}
		if back := q.MarshalCompact(); !bytes.Equal(back, data) {
			t.Fatalf("accepted compact frame re-encodes to %d different bytes", len(back))
		}
	})
}
