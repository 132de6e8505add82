package experiments

import (
	"math"
	"testing"

	"semholo/internal/avatar"
	"semholo/internal/metrics"
)

// One small shared env for all experiment smoke tests.
var testEnv = NewEnv(EnvOptions{Cameras: 3, Resolution: 48, Seed: 2})

func TestTable2ReproducesShape(t *testing.T) {
	res := Table2(testEnv, 3)
	// The paper: semantic 0.46 / 0.30 Mbps, traditional 95.4 / 10.1
	// Mbps, savings ~207× / ~34×. Our substrate must land in the same
	// regimes.
	if res.SemanticRawMbps < 0.1 || res.SemanticRawMbps > 1.0 {
		t.Errorf("semantic raw %.2f Mbps outside the paper's regime", res.SemanticRawMbps)
	}
	if res.SemanticCompMbps >= res.SemanticRawMbps {
		t.Error("compression did not shrink the semantic stream")
	}
	if res.TraditionalRaw < 30 || res.TraditionalRaw > 300 {
		t.Errorf("traditional raw %.1f Mbps outside the paper's regime", res.TraditionalRaw)
	}
	if res.TraditionalComp >= res.TraditionalRaw {
		t.Error("dracogo did not shrink the mesh stream")
	}
	if res.SavingsRaw < 80 {
		t.Errorf("raw savings %.0f×, paper reports ~207×", res.SavingsRaw)
	}
	if res.SavingsComp < 5 {
		t.Errorf("compressed savings %.0f×, paper reports ~34×", res.SavingsComp)
	}
	// Who wins must match the paper: savings shrink after compression
	// (the mesh compresses much better than the already-tiny params).
	if res.SavingsComp >= res.SavingsRaw {
		t.Error("compressed savings should be smaller than raw savings")
	}
	if res.String() == "" {
		t.Error("empty string rendering")
	}
}

func TestFig2QualityImprovesWithResolution(t *testing.T) {
	pts := Fig2(testEnv, []int{24, 96})
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// Figure 2's trend lives in the fine structure: hands/fingers only
	// appear once the grid resolves them. Whole-body chamfer saturates
	// at the parametric-model floor (the paper's "cannot recover the
	// details of the clothes").
	if pts[1].HandChamfer >= pts[0].HandChamfer {
		t.Errorf("hand chamfer did not improve: %+v", pts)
	}
	if pts[1].Chamfer > pts[0].Chamfer*1.1 {
		t.Errorf("whole-body chamfer regressed: %+v", pts)
	}
	if pts[1].Vertices <= pts[0].Vertices {
		t.Error("vertex count did not grow with resolution")
	}
}

func TestFig3FreshBeatsStale(t *testing.T) {
	res := Fig3(testEnv, 48)
	if math.IsNaN(res.FreshPSNR) || math.IsNaN(res.StalePSNR) {
		t.Fatal("NaN PSNR")
	}
	// The paper's Figure 3 narrative: the learned (stale) appearance
	// misses the current expression; delivered texture does not.
	if res.FreshPSNR <= res.StalePSNR {
		t.Errorf("fresh texture PSNR %.1f not better than stale %.1f", res.FreshPSNR, res.StalePSNR)
	}
}

func TestFig4CostGrowsWithResolution(t *testing.T) {
	pts := Fig4(testEnv, []int{32, 96}, true, 48)
	if pts[1].SecondsPerFrame <= pts[0].SecondsPerFrame {
		t.Errorf("cost did not grow: %v", pts)
	}
	if pts[0].FPS <= 0 {
		t.Error("FPS not computed")
	}
	// Dense measured only under the limit.
	if pts[0].DenseSecondsPerFrame == 0 {
		t.Error("dense timing missing for res 32")
	}
	if pts[1].DenseSecondsPerFrame != 0 {
		t.Error("dense timing leaked past the limit")
	}
	// Narrow band must beat dense (that is its reason to exist). Two
	// single-shot ≈5 ms wall-clock timings flaked here; the property is
	// asserted on the deterministic work count instead — field samples
	// evaluated for the frame Fig4 times.
	fitted := testEnv.Seq.Motion.At(0.5)
	samples := func(dense bool) uint64 {
		var fc metrics.FieldCounters
		rec := &avatar.Reconstructor{Model: testEnv.Model, Resolution: 32, Workers: 1, Dense: dense, FieldStats: &fc}
		rec.Reconstruct(fitted)
		return fc.Snapshot().Samples
	}
	if dense, sparse := samples(true), samples(false); sparse == 0 || dense <= sparse {
		t.Errorf("dense evaluated %d field samples, sparse %d at res 32: the narrow band saves nothing", dense, sparse)
	}
}

func TestFoveatedTradeoff(t *testing.T) {
	pts := Foveated(testEnv, []float64{2, 10})
	if len(pts) != 2 {
		t.Fatal("missing points")
	}
	// Larger fovea ⇒ more mesh bytes (the §3.1 trade-off).
	if pts[1].BytesPerFrame <= pts[0].BytesPerFrame {
		t.Errorf("bytes did not grow with radius: %v", pts)
	}
	// And better quality near the gaze.
	if pts[1].FovealChamfer > pts[0].FovealChamfer {
		t.Errorf("foveal quality did not improve with radius: %v", pts)
	}
}

func TestKeypointCountTradeoff(t *testing.T) {
	pts := KeypointCount(testEnv, []int{27, 71})
	// More keypoints ⇒ better fit.
	if pts[1].FitErrorM >= pts[0].FitErrorM {
		t.Errorf("fit error did not improve with keypoints: %v", pts)
	}
}

func TestFineTuneBeatsScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("NeRF cold-start + fine-tune soak")
	}
	res := FineTune(testEnv)
	if res.FineTuneLoss >= res.ScratchLoss {
		t.Errorf("fine-tune loss %.4f not better than scratch %.4f", res.FineTuneLoss, res.ScratchLoss)
	}
	if res.ChangedRays >= res.TotalRays {
		t.Errorf("changed rays %d not sparse vs %d", res.ChangedRays, res.TotalRays)
	}
}

func TestSlimmableWidthsTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the slimmable NeRF at every width")
	}
	pts := Slimmable(testEnv, []int{8, 16})
	if pts[0].Params >= pts[1].Params {
		t.Error("param count not monotone")
	}
	if pts[0].RenderMs >= pts[1].RenderMs {
		t.Errorf("narrow width not faster: %v", pts)
	}
}

func TestTextDeltaSeries(t *testing.T) {
	pts := TextDelta(testEnv, 4)
	if !pts[0].Keyframe {
		t.Error("first frame must be a keyframe")
	}
	for _, p := range pts[1:] {
		if p.Keyframe {
			t.Error("unexpected keyframe")
		}
		if p.RawBytes >= pts[0].RawBytes {
			t.Errorf("delta frame %d (%d B) not smaller than keyframe (%d B)",
				p.Frame, p.RawBytes, pts[0].RawBytes)
		}
	}
}

func TestCodecsCoverPayloads(t *testing.T) {
	pts := Codecs(testEnv)
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Payload+"/"+p.Codec] = true
		if p.Ratio <= 0 {
			t.Errorf("%s/%s ratio %v", p.Payload, p.Codec, p.Ratio)
		}
	}
	for _, want := range []string{"pose-params/lzr", "raw-mesh/flate", "raw-mesh/dracogo", "text-doc/lzr"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestTable1AllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 runs the full NeRF pipeline")
	}
	rows := Table1(testEnv, 2)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byMode := map[string]Table1Row{}
	for _, r := range rows {
		byMode[string(r.Mode)] = r
		if r.BytesPerFrame <= 0 || r.ExtractMs < 0 {
			t.Errorf("row %s incomplete: %+v", r.Mode, r)
		}
	}
	kp, trad, txt := byMode["keypoint"], byMode["traditional"], byMode["text"]
	// Table 1's data-size column: keypoint and text are L, traditional
	// is the ceiling.
	if kp.BytesPerFrame >= trad.BytesPerFrame {
		t.Error("keypoint not smaller than traditional")
	}
	if txt.BytesPerFrame >= trad.BytesPerFrame {
		t.Error("text not smaller than traditional")
	}
	// Visual quality column: traditional is the quality ceiling.
	if trad.Chamfer >= kp.Chamfer {
		t.Error("traditional should beat keypoint geometry")
	}
}

func TestQoESemanticBeatsRawOverBroadband(t *testing.T) {
	link := netsimBroadband()
	pts := QoE(testEnv, link, 8)
	byMode := map[string]QoEPoint{}
	for _, p := range pts {
		byMode[p.Mode] = p
		if p.DeliveredFPS <= 0 || p.Quality < 0 {
			t.Errorf("%s: incomplete point %+v", p.Mode, p)
		}
	}
	kp, raw := byMode["keypoint"], byMode["traditional-raw"]
	// The thesis: over constrained broadband, the raw volumetric stream
	// blows the latency budget while keypoint semantics stay interactive.
	if kp.P95LatencyMs >= raw.P95LatencyMs {
		t.Errorf("keypoint p95 %.1fms !< raw %.1fms", kp.P95LatencyMs, raw.P95LatencyMs)
	}
	if kp.Score <= raw.Score {
		t.Errorf("keypoint QoE %.3f !> raw %.3f", kp.Score, raw.Score)
	}
}
