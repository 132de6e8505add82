package semholo

// Benchmark harness: one testing.B target per table/figure of the paper
// plus the hot-path micro-benchmarks. `go test -bench=. -benchmem` runs
// everything; cmd/semholo-bench prints the full experiment series with
// the measured values EXPERIMENTS.md records.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"semholo/internal/avatar"
	"semholo/internal/core"
	"semholo/internal/experiments"
	"semholo/internal/geom"
	"semholo/internal/nerf"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
)

// benchEnv is shared across benchmarks (construction renders the rig).
var benchEnv = experiments.NewEnv(experiments.EnvOptions{Seed: 3})

// appendWireFrames appends one semantic WireFrame per encoded channel to
// dst — the bridge from Encoder output to Decoder input without a
// Session. Pass dst[:0] to reuse a previous frame's backing array.
func appendWireFrames(dst []WireFrame, ef core.EncodedFrame) []WireFrame {
	for _, ch := range ef.Channels {
		dst = append(dst, WireFrame{
			Type: FrameTypeSemantic, Channel: ch.Channel, Flags: ch.Flags, Payload: ch.Payload,
		})
	}
	return dst
}

// BenchmarkTable1Keypoint measures the paper's proof-of-concept pipeline
// end to end (extract + wire + reconstruct) — Table 1's keypoint row.
func BenchmarkTable1Keypoint(b *testing.B) {
	world := NewWorld(WorldOptions{Seed: 3})
	enc, dec := NewKeypointPipeline(world, KeypointOptions{Resolution: 48})
	c := world.FrameAt(0)
	var frames []WireFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef, err := enc.Encode(c)
		if err != nil {
			b.Fatal(err)
		}
		frames = appendWireFrames(frames[:0], ef)
		if _, err := dec.Decode(frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Text measures the text pipeline (caption + delta +
// text-to-3D) — Table 1's text row.
func BenchmarkTable1Text(b *testing.B) {
	world := NewWorld(WorldOptions{Seed: 4})
	enc, dec := NewTextPipeline(TextOptions{})
	c := world.FrameAt(0)
	var frames []WireFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef, err := enc.Encode(c)
		if err != nil {
			b.Fatal(err)
		}
		frames = appendWireFrames(frames[:0], ef)
		if _, err := dec.Decode(frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Traditional measures the baseline (Draco-style mesh
// codec both ways) — Table 1's traditional row.
func BenchmarkTable1Traditional(b *testing.B) {
	world := NewWorld(WorldOptions{Seed: 5})
	enc, dec := NewTraditionalPipeline()
	c := world.FrameAt(0)
	var frames []WireFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef, err := enc.Encode(c)
		if err != nil {
			b.Fatal(err)
		}
		frames = appendWireFrames(frames[:0], ef)
		if _, err := dec.Decode(frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the bandwidth comparison (Table 2).
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(benchEnv, 2)
		if res.SavingsRaw < 10 {
			b.Fatalf("implausible savings %v", res.SavingsRaw)
		}
	}
}

// BenchmarkFig2 regenerates the quality-vs-resolution sweep at a reduced
// axis (Figure 2); the full axis runs via cmd/semholo-bench -full.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(benchEnv, []int{32, 64})
	}
}

// BenchmarkFig3 regenerates the texture comparison (Figure 3).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(benchEnv, 48)
	}
}

// BenchmarkFig4Reconstruct times mesh extraction per output resolution
// (Figure 4's x-axis; run -bench 'Fig4' -benchtime 1x for the full
// sweep) from a decoded pose. The decoders extract only once per
// identity and skin every frame; this is the kernel that pass runs.
func BenchmarkFig4Reconstruct(b *testing.B) {
	for _, res := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("res%d", res), func(b *testing.B) {
			world := NewWorld(WorldOptions{Seed: 6})
			enc, dec := NewKeypointPipeline(world, KeypointOptions{Resolution: -1})
			ef, err := enc.Encode(world.FrameAt(0))
			if err != nil {
				b.Fatal(err)
			}
			data, err := dec.Decode(appendWireFrames(nil, ef))
			if err != nil {
				b.Fatal(err)
			}
			rec := &avatar.Reconstructor{Model: world.Model, Resolution: res}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Reconstruct(data.Params)
			}
		})
	}
}

// benchWorkerCounts returns the worker sweep for the parallel-kernel
// benchmarks: serial plus GOMAXPROCS (deduplicated on 1-CPU machines).
func benchWorkerCounts() []int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

// BenchmarkReconstructParallel times narrow-band isosurface extraction
// across worker counts; the mesh is identical at every count, so the
// ratio of the workers1 and workersN lines is the Figure 4 speedup.
func BenchmarkReconstructParallel(b *testing.B) {
	fitted := benchEnv.Seq.Motion.At(0.5)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			rec := &avatar.Reconstructor{Model: benchEnv.Model, Resolution: 128, Workers: w}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Reconstruct(fitted)
			}
		})
	}
}

// BenchmarkReconstructCacheHit times a pose-keyed mesh-LRU hit: the
// floor reconstruction cost when a (quantized) pose repeats.
func BenchmarkReconstructCacheHit(b *testing.B) {
	fitted := benchEnv.Seq.Motion.At(0.5)
	rec := &avatar.Reconstructor{
		Model: benchEnv.Model, Resolution: 128,
		Cache: &avatar.MeshCache{},
	}
	rec.Reconstruct(fitted) // miss: fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reconstruct(fitted)
	}
}

// BenchmarkHybridDecodeSteady times the receiver side of the §3.1 hybrid
// in steady state: a looped 16-frame window through one cache-backed
// decoder, so every peripheral (skinned) mesh is a cache hit and every
// frame ends in the foveal graft. B/op is the figure to watch — the graft writes one
// exact-size mesh per frame and a cache hit copies nothing.
func BenchmarkHybridDecodeSteady(b *testing.B) {
	const frames = 16
	world := NewWorld(WorldOptions{Seed: 3})
	enc, dec := NewHybridPipeline(world, HybridOptions{PeripheralResolution: 64})
	dec.Cache = &avatar.MeshCache{Capacity: frames}
	anchor := geom.V3(0, 1.5, 0.1)
	enc.SetGazeAnchor(anchor)
	dec.SetGazeAnchor(anchor)
	wire := make([][]WireFrame, frames)
	for i := range wire {
		ef, err := enc.Encode(world.FrameAt(i))
		if err != nil {
			b.Fatal(err)
		}
		wire[i] = appendWireFrames(nil, ef)
		if _, err := dec.Decode(wire[i]); err != nil { // fill the cache, size the scratch
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(wire[i%frames]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderMeshParallel times the banded software rasterizer
// across worker counts at probe-camera resolution.
func BenchmarkRenderMeshParallel(b *testing.B) {
	m := benchEnv.Model.Mesh(benchEnv.Seq.Motion.At(0.5))
	m.ComputeNormals()
	cam := geom.NewLookAtCamera(
		geom.IntrinsicsFromFOV(256, 256, math.Pi/3),
		geom.V3(0, 1.0, 2.5), geom.V3(0, 1.0, 0), geom.V3(0, 1, 0))
	shader := func(fi int, bary [3]float64, pos, normal geom.Vec3) pointcloud.Color {
		return pointcloud.Color{R: 0.5 + 0.5*normal.X, G: 0.5 + 0.5*normal.Y, B: 0.5 + 0.5*normal.Z}
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := render.NewFrame(cam)
				render.RenderMesh(f, m, render.MeshOptions{Shader: shader, Workers: w})
			}
		})
	}
}

// BenchmarkNerfStepsParallel times NeRF optimizer steps across worker
// counts (per-ray gradients computed concurrently, merged in ray order).
func BenchmarkNerfStepsParallel(b *testing.B) {
	cam := geom.NewLookAtCamera(
		geom.IntrinsicsFromFOV(48, 48, math.Pi/3),
		geom.V3(0, 1.0, 2.5), geom.V3(0, 1.0, 0), geom.V3(0, 1, 0))
	f := render.NewFrame(cam)
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			f.Color[y*48+x] = pointcloud.Color{R: float64(x) / 48, G: float64(y) / 48, B: 0.4}
		}
	}
	rays := nerf.RaysFromFrame(f, 1)
	scene := nerf.Scene{
		Bounds:  geom.NewAABB(geom.V3(-1, -0.2, -1), geom.V3(1, 2.1, 1)),
		Near:    1.2,
		Far:     4.2,
		Samples: 16,
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			net, err := nerf.NewNet([]int{8, 16}, 7)
			if err != nil {
				b.Fatal(err)
			}
			tr := nerf.NewTrainer(net, scene, 11)
			tr.Workers = w
			tr.Batch = 64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Steps(rays, 1, 16)
			}
		})
	}
}

// BenchmarkAblationFoveated times the §3.1 hybrid at a mid radius.
func BenchmarkAblationFoveated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Foveated(benchEnv, []float64{6})
	}
}

// BenchmarkAblationTextDelta times the §3.3 delta series.
func BenchmarkAblationTextDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TextDelta(benchEnv, 5)
	}
}
