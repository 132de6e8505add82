// Package capture simulates the multi-camera RGB-D rig that holographic
// communication systems use to capture participants (§2.1: "multiple
// RGB-D cameras positioned to cover different viewing angles"). Physical
// Kinect-class sensors are replaced by rendering the procedural human
// through the software rasterizer and applying a configurable sensor
// noise model (depth noise growing quadratically with range, dropout
// holes, pixel jitter), so the downstream fusion, extraction, and
// reconstruction code paths see realistic imperfect data.
package capture

import (
	"math"
	"math/rand"

	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/par"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
)

// NoiseModel describes RGB-D sensor imperfections.
type NoiseModel struct {
	// DepthSigma is the depth noise standard deviation at 1 m; actual
	// noise scales with z² as in structured-light/ToF sensors.
	DepthSigma float64
	// Dropout is the probability a valid depth pixel returns nothing.
	Dropout float64
	// ColorSigma is per-channel color noise.
	ColorSigma float64
}

// KinectLike returns a noise model in the regime of consumer RGB-D
// sensors (≈2 mm at 1 m, 1% dropout).
func KinectLike() NoiseModel {
	return NoiseModel{DepthSigma: 0.002, Dropout: 0.01, ColorSigma: 0.01}
}

// Rig is a set of calibrated cameras with a shared noise model.
type Rig struct {
	Cameras []geom.Camera
	Noise   NoiseModel
	// Workers bounds capture parallelism: cameras render concurrently, up
	// to Workers goroutines (0 = GOMAXPROCS, 1 = serial). Sensor noise is
	// applied serially in camera order afterwards, so the rng stream —
	// and therefore every captured view — is byte-identical for any
	// worker count.
	Workers int
	rng     *rand.Rand
}

// NewRing builds the standard capture arrangement: n cameras on a
// horizontal ring of the given radius at the given height, all aimed at
// the target point, each with a res×res sensor and the given horizontal
// FOV.
func NewRing(n int, radius, height float64, target geom.Vec3, res int, hfov float64, seed int64) *Rig {
	r := &Rig{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		eye := geom.V3(radius*math.Cos(ang), height, radius*math.Sin(ang))
		cam := geom.NewLookAtCamera(geom.IntrinsicsFromFOV(res, res, hfov), eye, target, geom.V3(0, 1, 0))
		r.Cameras = append(r.Cameras, cam)
	}
	return r
}

// Capture renders the mesh from every camera and applies sensor noise,
// returning one RGB-D view per camera. Cameras render concurrently (see
// Rig.Workers); the rng-driven noise pass stays serial and in camera
// order to keep output deterministic. Each view takes over its frame's
// depth and colour buffers rather than copying them: the frame is not
// kept.
func (r *Rig) Capture(m *mesh.Mesh, opt render.MeshOptions) []pointcloud.DepthView {
	views := make([]pointcloud.DepthView, len(r.Cameras))
	inner := r.innerOptions(opt)
	par.For(r.Workers, len(r.Cameras), func(i int) {
		f := render.NewFrame(r.Cameras[i])
		render.RenderMesh(f, m, inner)
		views[i] = pointcloud.DepthView{Camera: f.Camera, Depth: f.Depth, Colors: f.Color}
	})
	for i := range views {
		r.applyNoise(&views[i])
	}
	return views
}

// CaptureFrames renders without converting to depth views (for
// image-based semantics, which consume the 2D frames directly). Cameras
// render concurrently up to Rig.Workers.
func (r *Rig) CaptureFrames(m *mesh.Mesh, opt render.MeshOptions) []*render.Frame {
	frames := make([]*render.Frame, len(r.Cameras))
	inner := r.innerOptions(opt)
	par.For(r.Workers, len(r.Cameras), func(i int) {
		f := render.NewFrame(r.Cameras[i])
		render.RenderMesh(f, m, inner)
		frames[i] = f
	})
	return frames
}

// innerOptions splits the rig's worker budget between the camera level
// and the per-frame rasterizer bands: each camera gets max(1, budget ÷
// cameras), so a capture never fans out to cameras × GOMAXPROCS
// goroutines and a rig at Workers 1 is serial whatever opt.Workers says.
// Worker counts never change pixel output, so this is purely a
// scheduling decision.
func (r *Rig) innerOptions(opt render.MeshOptions) render.MeshOptions {
	opt.Workers = max(1, par.Resolve(r.Workers)/max(1, len(r.Cameras)))
	return opt
}

func (r *Rig) applyNoise(v *pointcloud.DepthView) {
	n := r.Noise
	if n.DepthSigma == 0 && n.Dropout == 0 && n.ColorSigma == 0 {
		return
	}
	for i, d := range v.Depth {
		if d <= 0 {
			continue
		}
		if n.Dropout > 0 && r.rng.Float64() < n.Dropout {
			v.Depth[i] = 0
			continue
		}
		if n.DepthSigma > 0 {
			v.Depth[i] = d + r.rng.NormFloat64()*n.DepthSigma*d*d
		}
		if n.ColorSigma > 0 && v.Colors != nil {
			c := v.Colors[i]
			v.Colors[i] = pointcloud.Color{
				R: geom.Clamp(c.R+r.rng.NormFloat64()*n.ColorSigma, 0, 1),
				G: geom.Clamp(c.G+r.rng.NormFloat64()*n.ColorSigma, 0, 1),
				B: geom.Clamp(c.B+r.rng.NormFloat64()*n.ColorSigma, 0, 1),
			}
		}
	}
}

// Capture is one synchronized multi-view sample of the scene with its
// ground truth attached — what a site's edge server sees each frame
// (Figure 1, left).
type Capture struct {
	Time  float64
	Truth *body.Params // ground-truth pose driving the scene
	Mesh  *mesh.Mesh   // ground-truth posed mesh
	Views []pointcloud.DepthView
}

// Sequence generates synchronized captures of a moving human — the
// workload generator standing in for the paper's recorded RGB-D dataset.
type Sequence struct {
	Model  *body.Model
	Motion body.Motion
	Rig    *Rig
	FPS    float64
	Render render.MeshOptions
}

// FrameAt produces the capture at frame index i.
func (s *Sequence) FrameAt(i int) Capture {
	t := float64(i) / s.FPS
	params := s.Motion.At(t)
	m := s.Model.Mesh(params)
	return Capture{
		Time:  t,
		Truth: params,
		Mesh:  m,
		Views: s.Rig.Capture(m, s.Render),
	}
}

// SkinShader returns a simple procedural "clothed human" shader: skin
// tone on head and hands, clothing bands elsewhere, varying with height
// so texture error metrics have structure to measure (Figure 3).
func SkinShader() render.MeshOptions {
	skin := pointcloud.Color{R: 0.87, G: 0.67, B: 0.54}
	shirt := pointcloud.Color{R: 0.25, G: 0.35, B: 0.65}
	pants := pointcloud.Color{R: 0.2, G: 0.2, B: 0.22}
	return render.MeshOptions{
		Shader: func(fi int, bary [3]float64, pos, normal geom.Vec3) pointcloud.Color {
			switch {
			case pos.Y > 1.38: // head/neck
				return skin
			case pos.Y > 0.9: // torso/arms
				// Sleeve stripes give the texture high-frequency detail.
				if int(pos.X*40+100)%7 == 0 {
					return pointcloud.Color{R: 0.9, G: 0.9, B: 0.92}
				}
				return shirt
			default:
				return pants
			}
		},
	}
}
