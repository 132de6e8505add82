package experiments

import (
	"math"
	"time"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/core"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/nerf"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
	"semholo/internal/textsem"
	"semholo/internal/transport"
)

// FoveatedPoint is one foveal-radius operating point of the §3.1
// trade-off: bandwidth for the foveal mesh vs reconstruction burden for
// the periphery vs quality near the gaze.
type FoveatedPoint struct {
	RadiusDeg     float64
	BytesPerFrame float64
	Mbps          float64
	DecodeMs      float64
	// FovealChamfer is quality within 0.25 m of the gaze anchor.
	FovealChamfer float64
	// GlobalChamfer is whole-body quality.
	GlobalChamfer float64
}

// Foveated sweeps the foveal radius — the communication/computation
// trade-off knob §3.1 calls out.
func Foveated(env *Env, radii []float64) []FoveatedPoint {
	anchor := geom.V3(0, 1.5, 0.1) // gazing at the face
	c := env.Seq.FrameAt(6)
	truthNear := sampleNear(c.Mesh, anchor, 0.25, 6000)

	out := make([]FoveatedPoint, 0, len(radii))
	for _, r := range radii {
		sel := gaze.FovealSelector{Radius: r, ViewDistance: 2}
		enc := &core.HybridEncoder{
			Keypoint:    env.keypointEncoder(),
			Selector:    sel,
			MeshOptions: dracogo.Options{},
		}
		enc.SetGazeAnchor(anchor)
		dec := &core.HybridDecoder{
			Model:                env.Model,
			Codec:                compress.LZR(),
			PeripheralResolution: 40,
			Selector:             sel,
			Cache:                env.reconCache(),
			Counters:             env.reconCounters(),
		}
		dec.SetGazeAnchor(anchor)

		ef, err := enc.Encode(c)
		if err != nil {
			panic(err)
		}
		frames := toTransportFrames(ef)
		// The first decode extracts the decoder's rest surface, a
		// once-per-identity cost; the timed one is the per-frame cost.
		if _, err := dec.Decode(frames); err != nil {
			panic(err)
		}
		t0 := time.Now()
		data, err := dec.Decode(frames)
		decodeMs := ms(time.Since(t0))
		if err != nil {
			panic(err)
		}
		p := FoveatedPoint{
			RadiusDeg:     r,
			BytesPerFrame: float64(ef.TotalBytes()),
			Mbps:          env.mbps(float64(ef.TotalBytes())),
			DecodeMs:      decodeMs,
			GlobalChamfer: metrics.CompareMeshes(data.Mesh, c.Mesh, 4000, 0.02).Chamfer,
		}
		near := sampleNear(data.Mesh, anchor, 0.25, 6000)
		if len(near) > 0 && len(truthNear) > 0 {
			p.FovealChamfer = metrics.CompareClouds(near, truthNear, 0.02).Chamfer
		}
		out = append(out, p)
	}
	return out
}

func sampleNear(m *mesh.Mesh, anchor geom.Vec3, radius float64, n int) []geom.Vec3 {
	var pts []geom.Vec3
	for _, p := range m.SamplePoints(n) {
		if p.Dist(anchor) < radius {
			pts = append(pts, p)
		}
	}
	return pts
}

func toTransportFrames(ef core.EncodedFrame) []transport.Frame {
	frames := make([]transport.Frame, 0, len(ef.Channels))
	for _, ch := range ef.Channels {
		frames = append(frames, transport.Frame{
			Type: transport.TypeSemantic, Channel: ch.Channel,
			Flags: ch.Flags, Payload: ch.Payload,
		})
	}
	return frames
}

// KeypointCountPoint is one operating point of the §3.1
// keypoints-vs-quality trade-off.
type KeypointCountPoint struct {
	Keypoints int
	// FitErrorM is the residual of the parametric fit (meters).
	FitErrorM float64
	// Chamfer vs ground truth after reconstruction.
	Chamfer float64
	// ExtractMs covers detection + fit.
	ExtractMs float64
}

// KeypointCount sweeps how many keypoints the fit consumes: body joints
// only, body+hands, and the full landmark set. Unobserved keypoints fall
// back to the rest-pose prior — exactly the degradation §3.1 predicts
// for sparse keypoint sets.
func KeypointCount(env *Env, counts []int) []KeypointCountPoint {
	// Walking engages the whole skeleton (legs included), so dropping
	// keypoints hurts everywhere; a talking workload keeps the legs at
	// the rest prior and would mask the degradation.
	walk := &capture.Sequence{
		Model:  env.Model,
		Motion: body.Walking(nil),
		Rig:    env.Seq.Rig,
		FPS:    env.FPS,
		Render: env.Seq.Render,
	}
	c := walk.FrameAt(10)
	truth := env.Model.Keypoints(c.Truth)
	det := keypoint.NewDetector(keypoint.DefaultDetector())
	rest := env.Model.Keypoints(&body.Params{})

	out := make([]KeypointCountPoint, 0, len(counts))
	for _, k := range counts {
		t0 := time.Now()
		obs := det.DetectRGBD(c.Views, truth)
		est := make([]geom.Vec3, len(obs))
		for i := range obs {
			switch {
			case i >= k:
				est[i] = rest[i] // not extracted at this operating point
			case obs[i].Valid:
				est[i] = obs[i].Pos
			default:
				est[i] = rest[i]
			}
		}
		fitted := avatar.Fit(env.Model, est, nil)
		extract := ms(time.Since(t0))
		fitted.Expression = c.Truth.Expression

		rec := &avatar.Reconstructor{Model: env.Model, Resolution: 64, Workers: env.Parallelism}
		m := rec.Reconstruct(fitted)
		out = append(out, KeypointCountPoint{
			Keypoints: k,
			FitErrorM: avatar.FitError(env.Model, fitted, truth),
			Chamfer:   metrics.CompareMeshes(m, c.Mesh, 4000, 0.02).Chamfer,
			ExtractMs: extract,
		})
	}
	return out
}

// FineTuneResult quantifies §3.2's continuous-learning proposal.
type FineTuneResult struct {
	// ColdStartSteps is the one-time pre-training budget.
	ColdStartSteps int
	// Budget is the per-frame step budget compared below.
	Budget int
	// FineTuneLoss is the post-adaptation loss using changed-pixel
	// fine-tuning of the pre-trained model.
	FineTuneLoss float64
	// ScratchLoss is the loss after training a fresh model with the same
	// per-frame budget.
	ScratchLoss float64
	// ChangedRays / TotalRays show the supervision reduction.
	ChangedRays, TotalRays int
}

// headScene is the NeRF experiment scene: a face close-up, matching
// §3.2's observation that during a meeting "the major change in the
// user's appearance may be only facial expressions". The head fills the
// frame, so the tiny CPU-scale MLP can actually converge (a full-body
// wide shot is mostly background and underfits into the trivial
// all-empty solution).
func headScene(env *Env, seed int64) (*capture.Rig, nerf.Scene) {
	const headY = 1.5
	rig := capture.NewRing(3, 0.7, headY, geomV3{Y: headY}, 32, math.Pi/5, seed)
	sc := nerf.Scene{
		Bounds:  geom.NewAABB(geom.V3(-0.25, headY-0.3, -0.25), geom.V3(0.25, headY+0.3, 0.25)),
		Near:    0.3,
		Far:     1.3,
		Samples: 16,
	}
	return rig, sc
}

// headFrames renders the face close-up for the given expression state.
func headFrames(env *Env, rig *capture.Rig, jawOpen float64) []*render.Frame {
	params := env.Seq.Motion.At(0)
	params.Expression[0] = jawOpen
	m := env.Model.Mesh(params)
	return rig.CaptureFrames(m, expressiveShader(env, params))
}

// FineTune measures fine-tune-vs-retrain at equal per-frame budgets on
// the face close-up scene: the expression changes between frames, and
// only the affected rays are re-trained.
func FineTune(env *Env) FineTuneResult {
	rig, sc := headScene(env, env.Seed+30)
	rays := func(fs []*render.Frame) []nerf.TrainRay {
		var out []nerf.TrainRay
		for _, f := range fs {
			out = append(out, nerf.RaysFromFrame(f, 1)...)
		}
		return out
	}
	f0 := headFrames(env, rig, 0)   // mouth closed
	f1 := headFrames(env, rig, 0.9) // mouth open
	rays0, rays1 := rays(f0), rays(f1)

	res := FineTuneResult{ColdStartSteps: 800, Budget: 60, TotalRays: len(rays1)}

	n, _ := nerf.NewNet([]int{32}, env.Seed+31)
	tr := nerf.NewTrainer(n, sc, env.Seed+32)
	tr.Steps(rays0, res.ColdStartSteps, 32)

	var changed []nerf.TrainRay
	for i := range f0 {
		changed = append(changed, nerf.ChangedRays(f0[i], f1[i], 0.05, 1)...)
	}
	res.ChangedRays = len(changed)
	// Fine-tune on the changed rays plus a small replay sample of the
	// stable rays, preventing catastrophic forgetting of the rest of the
	// scene.
	tune := append([]nerf.TrainRay(nil), changed...)
	for i := 0; i < len(rays1); i += 16 {
		tune = append(tune, rays1[i])
	}
	tr.Steps(tune, res.Budget, 32)
	res.FineTuneLoss = tr.Loss(rays1, 32)

	n2, _ := nerf.NewNet([]int{32}, env.Seed+33)
	tr2 := nerf.NewTrainer(n2, sc, env.Seed+34)
	tr2.Steps(rays1, res.Budget, 32)
	res.ScratchLoss = tr2.Loss(rays1, 32)
	return res
}

// SlimmablePoint is one width of the §3.2 rate-adaptation sweep.
type SlimmablePoint struct {
	Width    int
	Params   int
	RenderMs float64 // novel-view render time at the probe camera
	PSNR     float64 // vs ground truth
}

// Slimmable trains one slimmable NeRF on the face close-up and
// evaluates every operating width: smaller widths render faster at lower
// quality — the resolution/model-size adaptation of §3.2.
func Slimmable(env *Env, widths []int) []SlimmablePoint {
	rig, sc := headScene(env, env.Seed+40)
	frames := headFrames(env, rig, 0.4)
	var rays []nerf.TrainRay
	for _, f := range frames {
		rays = append(rays, nerf.RaysFromFrame(f, 1)...)
	}
	n, err := nerf.NewNet(widths, env.Seed+41)
	if err != nil {
		panic(err)
	}
	tr := nerf.NewTrainer(n, sc, env.Seed+42)
	tr.StepsSlimmable(rays, 500)

	probe := rig.Cameras[0]
	gt := frames[0]
	out := make([]SlimmablePoint, 0, len(widths))
	for _, w := range widths {
		t0 := time.Now()
		view := n.RenderView(sc, probe, w)
		out = append(out, SlimmablePoint{
			Width:    w,
			Params:   n.ParamCount(w),
			RenderMs: ms(time.Since(t0)),
			PSNR:     metrics.PSNR(view.Color, gt.Color),
		})
	}
	return out
}

// TextDeltaPoint is one frame of the §3.3 delta-encoding series.
type TextDeltaPoint struct {
	Frame           int
	Keyframe        bool
	RawBytes        int
	CompressedBytes int
}

// TextDelta encodes a frame sequence with the text pipeline and reports
// the per-frame wire cost: keyframes vs deltas, before and after
// general-purpose compression.
func TextDelta(env *Env, frames int) []TextDeltaPoint {
	cap := textsem.Captioner{CellSize: 0.25, Precision: 2}
	lzr := compress.LZR()
	var prev textsem.Document
	have := false
	out := make([]TextDeltaPoint, 0, frames)
	for i := 0; i < frames; i++ {
		c := env.Seq.FrameAt(i)
		cloud := pointcloud.Fuse(c.Views, pointcloud.FuseOptions{Stride: 2, Voxel: 0.02})
		doc := cap.Caption(cloud)
		var raw []byte
		key := !have
		if key {
			raw = doc.Marshal()
			prev = doc
		} else {
			u := textsem.StableDelta(prev, doc, 0.015)
			raw = u.Marshal()
			prev = textsem.Apply(prev, u) // track receiver state
		}
		out = append(out, TextDeltaPoint{
			Frame:           i,
			Keyframe:        key,
			RawBytes:        len(raw),
			CompressedBytes: len(lzr.Encode(raw)),
		})
		have = true
	}
	return out
}

// CodecPoint is one payload×codec measurement.
type CodecPoint struct {
	Payload  string
	Codec    string
	Raw      int
	Encoded  int
	Ratio    float64
	EncodeMs float64
}

// Codecs compares the compression substrates on the three wire payload
// types (pose parameters, meshes, caption documents).
func Codecs(env *Env) []CodecPoint {
	c := env.Seq.FrameAt(4)
	params := c.Truth.Marshal()
	meshRaw := dracoRawBytes(c.Mesh)
	cloud := pointcloud.Fuse(c.Views, pointcloud.FuseOptions{Stride: 2, Voxel: 0.02})
	doc := textsem.Captioner{CellSize: 0.25, Precision: 2}.Caption(cloud).Marshal()

	var out []CodecPoint
	generic := []compress.Codec{compress.LZR(), compress.Flate()}
	for _, payload := range []struct {
		name string
		data []byte
	}{
		{"pose-params", params},
		{"raw-mesh", meshRaw},
		{"text-doc", doc},
	} {
		for _, codec := range generic {
			t0 := time.Now()
			enc := codec.Encode(payload.data)
			out = append(out, CodecPoint{
				Payload:  payload.name,
				Codec:    codec.Name(),
				Raw:      len(payload.data),
				Encoded:  len(enc),
				Ratio:    float64(len(payload.data)) / float64(len(enc)),
				EncodeMs: ms(time.Since(t0)),
			})
		}
	}
	// Mesh-specific codec.
	t0 := time.Now()
	enc := dracogo.EncodeMesh(c.Mesh, dracogo.Options{})
	out = append(out, CodecPoint{
		Payload:  "raw-mesh",
		Codec:    "dracogo",
		Raw:      len(meshRaw),
		Encoded:  len(enc),
		Ratio:    float64(len(meshRaw)) / float64(len(enc)),
		EncodeMs: ms(time.Since(t0)),
	})
	return out
}

// dracoRawBytes serializes a mesh uncompressed (positions f64 + faces
// u32) for codec comparisons.
func dracoRawBytes(m *mesh.Mesh) []byte {
	out := make([]byte, 0, len(m.Vertices)*24+len(m.Faces)*12)
	for _, v := range m.Vertices {
		out = appendF64(out, v.X)
		out = appendF64(out, v.Y)
		out = appendF64(out, v.Z)
	}
	for _, f := range m.Faces {
		out = appendU32(out, uint32(f.A))
		out = appendU32(out, uint32(f.B))
		out = appendU32(out, uint32(f.C))
	}
	return out
}
