package avatar

import (
	"math"
	"testing"

	"semholo/internal/body"
	"semholo/internal/geom"
)

// TestFieldEmptyBones pins the no-capsule edge: empty space everywhere,
// reported as +Inf rather than a finite sentinel.
func TestFieldEmptyBones(t *testing.T) {
	f := &frameField{k: 0.015}
	if v := f.fold(geom.V3(0.3, -1, 2)); !math.IsInf(v, 1) {
		t.Fatalf("empty field = %g, want +Inf", v)
	}
}

// BenchmarkReconstructCold128 times one narrow-band extraction per frame
// of the talking motion at res 128.
func BenchmarkReconstructCold128(b *testing.B) {
	rec := &Reconstructor{Model: fitModel, Resolution: 128}
	frames := motionFrames(body.Talking(nil), 16, 1.0/30)
	rec.Reconstruct(frames[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reconstruct(frames[i%len(frames)])
	}
}
