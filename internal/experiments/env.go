// Package experiments regenerates the paper's tables, figures and
// ablations: one function per table/figure plus the §3 ablations
// DESIGN.md calls out. The cmd/semholo-bench binary prints these
// results; the repository-root benchmarks wrap them as testing.B
// targets. Everything is deterministic given the Env seed. Performance
// of the product's path is measured by bench/, not here.
package experiments

import (
	"encoding/binary"
	"math"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/netsim"
	"semholo/internal/par"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
	"semholo/internal/textsem"
)

// Env is the shared experiment environment: the simulated capture site
// standing in for the paper's RGB-D dataset, plus probe cameras for
// quality measurement.
type Env struct {
	// Model is the session participant (detail 1 for speed).
	Model *body.Model
	// TableModel is the SMPL-X-scale model (detail 2) used for Table 2's
	// size accounting.
	TableModel *body.Model
	Seq        *capture.Sequence
	// Probe is the quality-measurement camera (member of the rig so
	// captures cover it).
	Probe geom.Camera
	FPS   float64
	Seed  int64
	// Parallelism is the resolved worker count threaded into every
	// compute kernel (capture rig, isosurface extraction, rasterizer,
	// NeRF training). Always ≥ 1 after NewEnv.
	Parallelism int
}

// EnvOptions configures NewEnv.
type EnvOptions struct {
	Cameras    int     // default 4
	Resolution int     // default 64
	FPS        float64 // default 30
	Seed       int64   // default 1
	// Motion defaults to Talking.
	Motion body.Motion
	// Parallelism bounds worker goroutines per kernel: 0 → GOMAXPROCS,
	// 1 → serial. Results are worker-count invariant (see internal/par),
	// so figures regenerate identically at any setting.
	Parallelism int
}

// NewEnv builds the standard environment.
func NewEnv(opt EnvOptions) *Env {
	if opt.Cameras <= 0 {
		opt.Cameras = 4
	}
	if opt.Resolution <= 0 {
		opt.Resolution = 64
	}
	if opt.FPS <= 0 {
		opt.FPS = 30
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Motion == nil {
		opt.Motion = body.Talking(nil)
	}
	workers := par.Resolve(opt.Parallelism)
	model := body.NewModel(nil, body.ModelOptions{Detail: 1})
	rig := capture.NewRing(opt.Cameras, 2.5, 1.0, geom.V3(0, 1.0, 0), opt.Resolution, math.Pi/3, opt.Seed)
	rig.Noise = capture.KinectLike()
	rig.Workers = workers
	return &Env{
		Model:      model,
		TableModel: body.NewModel(nil, body.ModelOptions{Detail: 2}),
		Seq: &capture.Sequence{
			Model:  model,
			Motion: opt.Motion,
			Rig:    rig,
			FPS:    opt.FPS,
			Render: capture.SkinShader(),
		},
		Probe:       rig.Cameras[0],
		FPS:         opt.FPS,
		Seed:        opt.Seed,
		Parallelism: workers,
	}
}

// lzrCodec returns the standard general-purpose wire codec.
func lzrCodec() compress.Codec { return compress.LZR() }

// textCaptioner returns the standard text-semantics configuration.
func textCaptioner() textsem.Captioner {
	return textsem.Captioner{CellSize: 0.25, Precision: 2}
}

// keypointEncoder builds the standard keypoint encoder for this env.
func (e *Env) keypointEncoder() *core.KeypointEncoder {
	return &core.KeypointEncoder{
		Model:    e.Model,
		Detector: keypoint.NewDetector(keypoint.DefaultDetector()),
		Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
		Codec:    compress.LZR(),
	}
}

// renderGroundTruth renders the textured ground-truth mesh from the
// probe camera.
func (e *Env) renderGroundTruth(c capture.Capture) *render.Frame {
	f := render.NewFrame(e.Probe)
	render.RenderMesh(f, c.Mesh, capture.SkinShader())
	return f
}

// mbps converts bytes-per-frame at the env frame rate to megabits per
// second — the unit of Table 2.
func (e *Env) mbps(bytesPerFrame float64) float64 {
	return bytesPerFrame * 8 * e.FPS / 1e6
}

// Shorthand aliases used throughout the harness.
type (
	geomV3 = geom.Vec3
	colorT = pointcloud.Color
)

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// netsimBroadband exposes the paper's broadband profile to tests without
// an extra import at every call site.
func netsimBroadband() netsim.LinkConfig { return netsim.BroadbandUS(9) }
