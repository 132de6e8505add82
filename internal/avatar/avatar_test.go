package avatar

import (
	"math"
	"testing"
	"time"

	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/metrics"
)

var fitModel = body.NewModel(nil, body.ModelOptions{Detail: 1})

func TestFitRecoverRestPose(t *testing.T) {
	truth := &body.Params{}
	kps := fitModel.Keypoints(truth)
	fitted := Fit(fitModel, kps, nil)
	if e := FitError(fitModel, fitted, kps); e > 1e-6 {
		t.Errorf("rest-pose fit error %v", e)
	}
}

func TestFitRecoversPosedKeypoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    body.Motion
		time float64
	}{
		{"talking", body.Talking(nil), 1.3},
		{"walking", body.Walking(nil), 0.7},
		{"waving", body.Waving(nil), 2.1},
	} {
		truth := tc.m.At(tc.time)
		kps := fitModel.Keypoints(truth)
		fitted := Fit(fitModel, kps, nil)
		// The fit must reproduce the observed joint positions closely
		// (twist of terminal bones is unobservable but does not move
		// joints).
		if e := FitError(fitModel, fitted, kps); e > 0.01 {
			t.Errorf("%s: fit keypoint error %.4f m", tc.name, e)
		}
	}
}

func TestFitWithTranslation(t *testing.T) {
	truth := body.Talking(nil).At(0.5)
	truth.Translation = geom.V3(0.7, 0.1, -1.2)
	kps := fitModel.Keypoints(truth)
	fitted := Fit(fitModel, kps, nil)
	if e := FitError(fitModel, fitted, kps); e > 0.01 {
		t.Errorf("translated fit error %.4f", e)
	}
	if fitted.Translation.Dist(truth.Translation) > 0.02 {
		t.Errorf("translation fit %v vs %v", fitted.Translation, truth.Translation)
	}
}

func TestFitNoisyKeypoints(t *testing.T) {
	truth := body.Waving(nil).At(1.0)
	kps := fitModel.Keypoints(truth)
	// 1 cm detector-grade noise, deterministic pattern.
	for i := range kps {
		kps[i] = kps[i].Add(geom.V3(
			0.01*math.Sin(float64(i)*1.7),
			0.01*math.Cos(float64(i)*2.3),
			0.01*math.Sin(float64(i)*0.9+1),
		))
	}
	fitted := Fit(fitModel, kps, nil)
	if e := FitError(fitModel, fitted, kps); e > 0.05 {
		t.Errorf("noisy fit error %.4f m", e)
	}
}

func TestFitTooFewKeypoints(t *testing.T) {
	fitted := Fit(fitModel, []geom.Vec3{{X: 1}}, []float64{2})
	if fitted == nil {
		t.Fatal("nil params")
	}
	if fitted.Shape[0] != 2 {
		t.Error("shape not carried through")
	}
}

func TestReconstructProducesBodyMesh(t *testing.T) {
	truth := body.Talking(nil).At(0.4)
	rec := &Reconstructor{Model: fitModel, Resolution: 48}
	m := rec.Reconstruct(truth)
	if len(m.Faces) < 100 {
		t.Fatalf("reconstruction has only %d faces", len(m.Faces))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid reconstruction: %v", err)
	}
	// Human-sized.
	sz := m.Bounds().Size()
	if sz.Y < 1.4 || sz.Y > 2.2 {
		t.Errorf("reconstructed height %.2f m", sz.Y)
	}
	// Near the ground-truth LBS mesh: chamfer within a few cm (the
	// capsule SDF cannot capture skinning blends exactly — the analogue
	// of X-Avatar missing cloth folds, §4.2).
	truthMesh := fitModel.Mesh(truth)
	rep := metrics.CompareMeshes(m, truthMesh, 3000, 0.02)
	if rep.Chamfer > 0.05 {
		t.Errorf("chamfer to ground truth %.4f m", rep.Chamfer)
	}
}

func TestReconstructSparseMatchesDense(t *testing.T) {
	truth := body.Walking(nil).At(0.2)
	rec := &Reconstructor{Model: fitModel, Resolution: 32}
	sparse := rec.Reconstruct(truth)
	dense, _ := extractDense(rec, truth)
	// The narrow-band extraction must produce the same surface as the
	// full-grid one (same lattice, same field).
	if math.Abs(float64(len(sparse.Faces)-len(dense.Faces))) > float64(len(dense.Faces))/100 {
		t.Errorf("sparse %d faces vs dense %d", len(sparse.Faces), len(dense.Faces))
	}
	// Both extract on the same lattice, so the vertex sets must coincide.
	rep := metrics.CompareClouds(sparse.Vertices, dense.Vertices, 0.001)
	if rep.Hausdorff > 1e-9 {
		t.Errorf("sparse/dense vertex hausdorff %.6f", rep.Hausdorff)
	}
}

func TestResolutionImprovesQuality(t *testing.T) {
	// Figure 2's trend: higher output resolution, more detail (lower
	// chamfer), saturating as the parametric limit is reached.
	truth := body.Talking(nil).At(0.9)
	truthMesh := fitModel.Mesh(truth)
	errAt := func(res int) float64 {
		m := (&Reconstructor{Model: fitModel, Resolution: res}).Reconstruct(truth)
		return metrics.CompareMeshes(m, truthMesh, 3000, 0.02).Chamfer
	}
	e16, e64 := errAt(16), errAt(64)
	if e64 >= e16 {
		t.Errorf("chamfer did not improve with resolution: res16=%.4f res64=%.4f", e16, e64)
	}
}

func TestReconstructionCostGrowsWithResolution(t *testing.T) {
	// Figure 4's trend: per-frame reconstruction time grows superlinearly
	// with resolution.
	truth := body.Talking(nil).At(0.1)
	timeAt := func(res int) time.Duration {
		rec := &Reconstructor{Model: fitModel, Resolution: res}
		start := time.Now()
		rec.Reconstruct(truth)
		return time.Since(start)
	}
	timeAt(16) // warm up allocator
	t32, t128 := timeAt(32), timeAt(128)
	if t128 < 2*t32 {
		t.Errorf("res 128 (%v) not ≫ res 32 (%v)", t128, t32)
	}
}

func TestEndToEndKeypointPipeline(t *testing.T) {
	// keypoints → fit → reconstruct → compare against ground truth:
	// the full §4 proof-of-concept loop in miniature.
	truth := body.Waving(nil).At(0.6)
	kps := fitModel.Keypoints(truth)
	fitted := Fit(fitModel, kps, nil)
	m := (&Reconstructor{Model: fitModel, Resolution: 48}).Reconstruct(fitted)
	truthMesh := fitModel.Mesh(truth)
	rep := metrics.CompareMeshes(m, truthMesh, 3000, 0.02)
	if rep.Chamfer > 0.06 {
		t.Errorf("end-to-end chamfer %.4f m", rep.Chamfer)
	}
}

func BenchmarkFit(b *testing.B) {
	truth := body.Talking(nil).At(1.0)
	kps := fitModel.Keypoints(truth)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fit(fitModel, kps, nil)
	}
}

func BenchmarkReconstructRes64(b *testing.B) {
	truth := body.Talking(nil).At(1.0)
	rec := &Reconstructor{Model: fitModel, Resolution: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Reconstruct(truth)
	}
}

// Property: reconstructions stay watertight across poses (the narrow
// band must never miss part of the zero crossing).
func TestReconstructWatertightAcrossPoses(t *testing.T) {
	rec := &Reconstructor{Model: fitModel, Resolution: 40}
	for _, tc := range []struct {
		name string
		m    body.Motion
		t    float64
	}{
		{"talking", body.Talking(nil), 0.7},
		{"walking", body.Walking(nil), 0.33},
		{"waving", body.Waving(nil), 1.9},
	} {
		m := rec.Reconstruct(tc.m.At(tc.t))
		if !m.IsWatertight() {
			t.Errorf("%s: reconstruction not watertight (%d boundary edges)",
				tc.name, m.BoundaryEdges())
		}
	}
}
