package experiments

import (
	"math"
	"time"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/geom"
	"semholo/internal/metrics"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
	"semholo/internal/texture"
)

// Fig2Point is one resolution of the Figure 2 sweep: geometric fidelity
// of the keypoint reconstruction versus the RGB-D ground truth.
type Fig2Point struct {
	Resolution int
	// Chamfer, Hausdorff95, FScore vs the ground-truth posed mesh.
	// FScore uses a tight 5 mm threshold so it responds to fine detail.
	Chamfer     float64
	Hausdorff95 float64
	FScore      float64
	// HandChamfer measures the hand regions only — the paper's Figure 2
	// calls out "hand joints and facial contours" as the detail that
	// appears with resolution (fingers vanish below their capsule radius
	// at coarse grids).
	HandChamfer float64
	Vertices    int
	Faces       int
}

// Fig2 reconstructs at each output resolution and measures geometric
// quality — the paper's Figure 2 (visual detail grows with resolution,
// saturating at the parametric-model limit). Following the paper's
// protocol, the pose comes from the dataset ("its provided 3D poses",
// §4.1) rather than from noisy detection, so resolution is the only
// variable.
func Fig2(env *Env, resolutions []int) []Fig2Point {
	c := env.Seq.FrameAt(8)
	kps := env.Model.Keypoints(c.Truth)
	fitted := avatar.Fit(env.Model, kps, nil)
	fitted.Expression = c.Truth.Expression

	// Reference: the observed surface, exactly the paper's Figure 2(a)
	// baseline ("textured mesh generated from RGB-D data") — a clean
	// multi-view fusion of the captured views. Using the capture (not
	// the LBS template directly) excludes template geometry buried
	// inside the body that no camera ever sees.
	cleanFrames := env.Seq.Rig.CaptureFrames(c.Mesh, env.Seq.Render)
	views := make([]pointcloud.DepthView, 0, len(cleanFrames))
	for _, f := range cleanFrames {
		views = append(views, f.DepthView())
	}
	reference := pointcloud.Fuse(views, pointcloud.FuseOptions{Stride: 1, Voxel: 0.008}).Points

	// Hand regions: samples near the wrists of the ground truth.
	g := env.Model.JointGlobals(c.Truth)
	wrists := []geomV3{
		g[body.LeftWrist].TranslationPart(),
		g[body.RightWrist].TranslationPart(),
	}
	handSamples := func(samples []geomV3) []geomV3 {
		var pts []geomV3
		for _, p := range samples {
			for _, w := range wrists {
				if p.Dist(w) < 0.18 {
					pts = append(pts, p)
					break
				}
			}
		}
		return pts
	}
	refHands := handSamples(reference)

	out := make([]Fig2Point, 0, len(resolutions))
	for _, res := range resolutions {
		rec := &avatar.Reconstructor{Model: env.Model, Resolution: res, Workers: env.Parallelism}
		m := rec.Reconstruct(fitted)
		samples := m.SamplePoints(8000)
		rep := metrics.CompareClouds(samples, reference, 0.005)
		p := Fig2Point{
			Resolution:  res,
			Chamfer:     rep.Chamfer,
			Hausdorff95: rep.Hausdorff95,
			FScore:      rep.FScore,
			HandChamfer: math.NaN(),
			Vertices:    len(m.Vertices),
			Faces:       len(m.Faces),
		}
		reconHands := handSamples(samples)
		if len(reconHands) > 0 && len(refHands) > 0 {
			p.HandChamfer = metrics.CompareClouds(reconHands, refHands, 0.005).Chamfer
		}
		out = append(out, p)
	}
	return out
}

// Fig3Result compares texture strategies at an expressive frame — the
// paper's Figure 3 (the learned texture misses the current expression;
// delivered texture does not).
type Fig3Result struct {
	// FreshPSNR / FreshSSIM: geometry reconstructed from keypoints,
	// textured by projecting the *current* frame's delivered 2D views
	// (§3.1's compressed-texture proposal).
	FreshPSNR, FreshSSIM float64
	// StalePSNR / StaleSSIM: the same geometry textured from the
	// *cold-start* frame's views — the analogue of X-Avatar's learned,
	// pose-baked appearance that cannot track expression changes.
	StalePSNR, StaleSSIM float64
	// The rendered panels (face close-ups), for image export.
	GroundTruthView, FreshView, StaleView *render.Frame
}

// Fig3 runs the texture comparison at reconstruction resolution res.
// Like the paper's Figure 3, it is a face close-up: a head-focused rig
// captures the participant with an expression-dependent face texture
// (the mouth region darkens with jaw opening, cheeks lift with a smile),
// and the cold-start frame holds a different expression than the test
// frame — the exact situation where baked appearance fails ("the learned
// mesh only reflects the open-mouth action, missing the pouting
// expression", §4.2).
func Fig3(env *Env, res int) Fig3Result {
	// Expressions: cold start talking with the mouth open; test frame
	// pouting with the mouth closed.
	coldParams := env.Seq.Motion.At(0)
	coldParams.Expression[0] = 0.9 // jaw open
	coldParams.Expression[1] = 0.8 // smile
	testParams := env.Seq.Motion.At(0)
	testParams.Expression[0] = 0    // mouth closed
	testParams.Expression[1] = -1.5 // pout

	// Head-focused rig (1 m ring at head height) for texture capture,
	// plus a face close-up probe for the comparison renders (the paper's
	// Figure 3 shows face close-ups).
	headY := 1.5
	rig := capture.NewRing(4, 1.0, headY, geomV3{Y: headY}, 128, math.Pi/4, env.Seed+51)
	probe := geom.NewLookAtCamera(
		geom.IntrinsicsFromFOV(128, 128, math.Pi/4),
		geomV3{Y: headY, Z: 0.45}, geomV3{Y: headY + 0.03}, geomV3{Y: 1})

	shaderFor := func(p *body.Params) render.MeshOptions {
		return expressiveShader(env, p)
	}
	coldMesh := env.Model.Mesh(coldParams)
	testMesh := env.Model.Mesh(testParams)
	coldViews := rig.Capture(coldMesh, shaderFor(coldParams))
	testViews := rig.Capture(testMesh, shaderFor(testParams))

	// Geometry: keypoint reconstruction of the test frame.
	kps := env.Model.Keypoints(testParams)
	fitted := avatar.Fit(env.Model, kps, nil)
	fitted.Expression = testParams.Expression
	rec := &avatar.Reconstructor{Model: env.Model, Resolution: res, Workers: env.Parallelism}
	geomMesh := rec.Reconstruct(fitted)
	geomMesh.ComputeNormals()

	opt := texture.ProjectOptions{DepthTolerance: 0.06, SearchRadius: 1}
	fresh := texture.ProjectOntoMesh(geomMesh, testViews, opt)
	stale := texture.ProjectOntoMesh(geomMesh, coldViews, opt)

	gt := render.NewFrame(probe)
	render.RenderMesh(gt, testMesh, shaderFor(testParams))
	renderWith := func(colors []colorT) *render.Frame {
		f := render.NewFrame(probe)
		render.RenderMesh(f, geomMesh, render.MeshOptions{
			Shader: texture.VertexColorShader(geomMesh, colors),
		})
		return f
	}
	freshView := renderWith(fresh)
	staleView := renderWith(stale)
	w := probe.Intr.Width
	return Fig3Result{
		FreshPSNR:       metrics.PSNR(freshView.Color, gt.Color),
		FreshSSIM:       metrics.SSIM(freshView.Color, gt.Color, w),
		StalePSNR:       metrics.PSNR(staleView.Color, gt.Color),
		StaleSSIM:       metrics.SSIM(staleView.Color, gt.Color, w),
		GroundTruthView: gt,
		FreshView:       freshView,
		StaleView:       staleView,
	}
}

// expressiveShader paints the standard clothed-human texture plus
// expression-dependent facial features: a mouth whose opening tracks
// Expression[0] and mouth corners that lift (smile) or drop (pout) with
// Expression[1].
func expressiveShader(env *Env, p *body.Params) render.MeshOptions {
	base := capture.SkinShader().Shader
	g := env.Model.JointGlobals(p)
	jaw := g[body.Jaw]
	mouth := jaw.TransformPoint(geomV3{Y: -0.005, Z: 0.045})
	open := 0.012 + 0.025*clamp01(p.Expression[0])
	const mouthWidth = 0.028
	cornerLift := 0.012 * p.Expression[1] // + up (smile), − down (pout)
	dark := colorT{R: 0.25, G: 0.1, B: 0.1}
	lips := colorT{R: 0.7, G: 0.35, B: 0.3}
	return render.MeshOptions{
		Shader: func(fi int, bary [3]float64, pos, normal geomV3) colorT {
			d := pos.Sub(mouth)
			// Mouth corners move with expression: shear the ellipse.
			dy := d.Y - cornerLift*(d.X/mouthWidth)*(d.X/mouthWidth)
			ex := d.X / mouthWidth
			ey := dy / open
			r2 := ex*ex + ey*ey
			switch {
			case r2 < 0.6 && d.Z > -0.03:
				return dark
			case r2 < 1.2 && d.Z > -0.03:
				return lips
			default:
				return base(fi, bary, pos, normal)
			}
		},
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Fig4Point is one resolution of the reconstruction-rate sweep.
type Fig4Point struct {
	Resolution int
	// Seconds per frame and the resulting FPS for single-threaded
	// extraction (paper: <1 FPS for most resolutions even on an A100).
	SecondsPerFrame float64
	FPS             float64
	// DenseSecondsPerFrame is the full-grid (no narrow band) cost; set
	// only when measureDense is requested and the resolution is small
	// enough to afford it.
	DenseSecondsPerFrame float64
	// Workers is the parallel worker count used for the Par* numbers;
	// ParSecondsPerFrame/ParFPS are zero when Workers ≤ 1 (nothing to
	// compare — the parallel path would just repeat the serial one).
	Workers            int
	ParSecondsPerFrame float64
	ParFPS             float64
	// CacheHitRate is the pose-keyed mesh-LRU hit rate when the same
	// motion window is replayed (second pass served from cache).
	CacheHitRate float64
	// CacheHitSecondsPerFrame is the per-frame cost of a cache hit.
	CacheHitSecondsPerFrame float64
}

// Fig4 measures reconstruction rate versus output resolution — the
// paper's Figure 4. measureDense additionally times the O(R³) full-grid
// evaluation for resolutions ≤ denseLimit (the ablation showing why
// narrow-band extraction is mandatory). When env.Parallelism > 1 each
// point also times the worker-pool extractor at that parallelism; the
// mesh is worker-count invariant, so only the rate changes.
func Fig4(env *Env, resolutions []int, measureDense bool, denseLimit int) []Fig4Point {
	fitted := env.Seq.Motion.At(0.5)
	out := make([]Fig4Point, 0, len(resolutions))
	for _, res := range resolutions {
		rec := &avatar.Reconstructor{Model: env.Model, Resolution: res, Workers: 1}
		start := time.Now()
		rec.Reconstruct(fitted)
		sec := time.Since(start).Seconds()
		p := Fig4Point{Resolution: res, SecondsPerFrame: sec, FPS: 1 / sec, Workers: env.Parallelism}
		if env.Parallelism > 1 {
			recP := &avatar.Reconstructor{Model: env.Model, Resolution: res, Workers: env.Parallelism}
			start = time.Now()
			recP.Reconstruct(fitted)
			p.ParSecondsPerFrame = time.Since(start).Seconds()
			p.ParFPS = 1 / p.ParSecondsPerFrame
		}
		if measureDense && res <= denseLimit {
			recD := &avatar.Reconstructor{Model: env.Model, Resolution: res, Dense: true, Workers: env.Parallelism}
			start = time.Now()
			recD.Reconstruct(fitted)
			p.DenseSecondsPerFrame = time.Since(start).Seconds()
		}
		// Cache columns: replay a short motion window twice through an
		// exact-keyed LRU; the second pass is all hits.
		const window = 4
		at := func(i int) *body.Params { return env.Seq.Motion.At(0.5 + float64(i)/env.FPS) }
		var rc metrics.ReconCounters
		cacheRec := &avatar.Reconstructor{
			Model: env.Model, Resolution: res, Workers: env.Parallelism,
			Cache: &avatar.MeshCache{Counters: &rc},
		}
		for i := 0; i < window; i++ {
			cacheRec.Reconstruct(at(i))
		}
		start = time.Now()
		for i := 0; i < window; i++ {
			cacheRec.Reconstruct(at(i))
		}
		p.CacheHitSecondsPerFrame = time.Since(start).Seconds() / window
		p.CacheHitRate = rc.Snapshot().HitRate()
		out = append(out, p)
	}
	return out
}
