package capture

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/mesh"
)

// benchRig is the benchmark's capture rig: four res-64 cameras on a
// 2.5 m ring aimed at the body, with Kinect-like noise.
func benchRig(workers int) *Rig {
	r := NewRing(4, 2.5, 1.0, geom.V3(0, 1.0, 0), 64, math.Pi/3, 7)
	r.Noise = KinectLike()
	r.Workers = workers
	return r
}

// benchBody is the Detail-1 body in a talking pose.
func benchBody() *mesh.Mesh {
	return body.NewModel(nil, body.ModelOptions{Detail: 1}).Mesh(body.Talking(nil).At(0.7))
}

// allocsPerRun is testing.AllocsPerRun at 4 Ps instead of 1: at one P
// a worker count left at its default resolves to 1, so an unbounded
// fan-out could not show. With several Ps a sync.Pool can miss when the
// goroutine changes P, and that noise only ever adds allocations, so
// the result is the least of five rounds.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f()
	least := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(least)
}

// TestCaptureAllocs pins the serial capture: a rig at Workers 1 renders
// each camera in one band even when the shader leaves the rasteriser's
// Workers at its default. It allows the views slice, per camera its
// frame (header, depth and colour buffers), which the view takes over,
// and par.For's three dispatch objects (the camera closure, its chunk
// wrapper and the one-range split). The render itself allocates
// nothing. Run on a non-race line (make alloc-check).
func TestCaptureAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	r := benchRig(1)
	m := benchBody()
	opt := SkinShader()
	r.Capture(m, opt) // warm the rasteriser's scratch pool
	want := float64(1 + 3*len(r.Cameras) + 3)
	if n := allocsPerRun(20, func() { r.Capture(m, opt) }); n > want {
		t.Fatalf("Capture makes %.0f allocations, want ≤ %.0f (views, %d frames of 3, 3 for par.For)", n, want, len(r.Cameras))
	}
}

// BenchmarkCapture times one capture of the benchmark's rig.
func BenchmarkCapture(b *testing.B) {
	m := benchBody()
	opt := SkinShader()
	for _, workers := range []int{1, 2} {
		r := benchRig(workers)
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Capture(m, opt)
			}
		})
	}
}
