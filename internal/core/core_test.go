package core

import (
	"math"
	"testing"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/metrics"
	"semholo/internal/nerf"
	"semholo/internal/pointcloud"
	"semholo/internal/textsem"
	"semholo/internal/transport"
)

// shared fixtures: model and a short captured sequence.
var (
	testModel = body.NewModel(nil, body.ModelOptions{Detail: 1})
	testSeq   = &capture.Sequence{
		Model:  testModel,
		Motion: body.Talking(nil),
		Rig:    capture.NewRing(4, 2.5, 1.0, geom.V3(0, 1.0, 0), 96, math.Pi/3, 17),
		FPS:    30,
		Render: capture.SkinShader(),
	}
)

// toFrames converts encoder output into the transport frames a decoder
// would see.
func toFrames(e EncodedFrame) []transport.Frame {
	out := make([]transport.Frame, 0, len(e.Channels))
	for _, c := range e.Channels {
		out = append(out, transport.Frame{
			Type:    transport.TypeSemantic,
			Channel: c.Channel,
			Flags:   c.Flags,
			Payload: c.Payload,
		})
	}
	return out
}

func newKeypointEncoder(sendTexture bool) *KeypointEncoder {
	return &KeypointEncoder{
		Model:       testModel,
		Detector:    keypoint.NewDetector(keypoint.DefaultDetector()),
		Filter:      keypoint.NewOneEuroFilter(1.0, 0.3),
		Codec:       compress.LZR(),
		SendTexture: sendTexture,
	}
}

func TestKeypointCodecRoundTrip(t *testing.T) {
	enc := newKeypointEncoder(false)
	dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 40}
	cap0 := testSeq.FrameAt(3)
	ef, err := enc.Encode(cap0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ef.Channels) != 1 {
		t.Fatalf("%d channels", len(ef.Channels))
	}
	// Table 2 regime: compressed pose ≪ 2 KB.
	if ef.TotalBytes() > 2048 {
		t.Errorf("keypoint frame %d bytes", ef.TotalBytes())
	}
	data, err := dec.Decode(toFrames(ef))
	if err != nil {
		t.Fatal(err)
	}
	if data.Params == nil || data.Mesh == nil {
		t.Fatal("missing params or mesh")
	}
	// Reconstruction close to ground truth.
	truthMesh := cap0.Mesh
	rep := metrics.CompareMeshes(data.Mesh, truthMesh, 2000, 0.02)
	if rep.Chamfer > 0.08 {
		t.Errorf("keypoint round-trip chamfer %.3f m", rep.Chamfer)
	}
}

func TestKeypointWithTexture(t *testing.T) {
	enc := newKeypointEncoder(true)
	dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 0}
	ef, err := enc.Encode(testSeq.FrameAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ef.Channels) != 2 {
		t.Fatalf("%d channels, want texture + pose", len(ef.Channels))
	}
	if _, err := dec.Decode(toFrames(ef)); err != nil {
		t.Fatal(err)
	}
	tex, w, h := dec.LastTexture()
	if tex == nil || w != 96 || h != 96 {
		t.Errorf("texture %dx%d, nil=%v", w, h, tex == nil)
	}
}

func TestKeypointUncompressedBigger(t *testing.T) {
	comp := newKeypointEncoder(false)
	raw := newKeypointEncoder(false)
	raw.Uncompressed = true
	c := testSeq.FrameAt(1)
	efC, _ := comp.Encode(c)
	efR, _ := raw.Encode(c)
	if efC.TotalBytes() >= efR.TotalBytes() {
		t.Errorf("compressed %d !< raw %d", efC.TotalBytes(), efR.TotalBytes())
	}
	if efR.TotalBytes() != body.MarshaledSize {
		t.Errorf("raw size %d != params size %d", efR.TotalBytes(), body.MarshaledSize)
	}
}

func TestTraditionalCodecRoundTrip(t *testing.T) {
	enc := &TraditionalEncoder{}
	dec := &TraditionalDecoder{}
	c := testSeq.FrameAt(2)
	ef, err := enc.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dec.Decode(toFrames(ef))
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Mesh.Vertices) != len(c.Mesh.Vertices) {
		t.Fatal("vertex count changed")
	}
	rep := metrics.CompareMeshes(data.Mesh, c.Mesh, 2000, 0.01)
	if rep.Chamfer > 0.01 {
		t.Errorf("traditional chamfer %.4f", rep.Chamfer)
	}
}

func TestTraditionalCompressionRegime(t *testing.T) {
	// Table 2's right half: compressed ≈ 10× smaller than raw.
	c := testSeq.FrameAt(2)
	efRaw, _ := (&TraditionalEncoder{Uncompressed: true}).Encode(c)
	efComp, _ := (&TraditionalEncoder{}).Encode(c)
	ratio := float64(efRaw.TotalBytes()) / float64(efComp.TotalBytes())
	if ratio < 4 {
		t.Errorf("traditional compression ratio %.1f", ratio)
	}
	// And the semantic/traditional gap: raw mesh ≫ keypoint frame
	// (paper: ~207×).
	kp, _ := newKeypointEncoder(false).Encode(c)
	gap := float64(efRaw.TotalBytes()) / float64(kp.TotalBytes())
	if gap < 50 {
		t.Errorf("semantic gap only %.0f×, paper reports ~207×", gap)
	}
}

func TestTextCodecRoundTripAndDeltas(t *testing.T) {
	enc := &TextEncoder{
		Captioner:        textsem.Captioner{CellSize: 0.25, Precision: 2},
		Codec:            compress.LZR(),
		KeyframeInterval: 10,
	}
	dec := &TextDecoder{Codec: compress.LZR()}
	var sizes []int
	for i := 0; i < 4; i++ {
		c := testSeq.FrameAt(i)
		ef, err := enc.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, ef.TotalBytes())
		data, err := dec.Decode(toFrames(ef))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if data.Cloud == nil || data.Cloud.Len() < 100 {
			t.Fatalf("frame %d: cloud %v", i, data.Cloud)
		}
	}
	// Deltas (frames 1..3) smaller than the keyframe (frame 0).
	if sizes[1] >= sizes[0] || sizes[2] >= sizes[0] {
		t.Errorf("delta frames not smaller: %v", sizes)
	}
}

func TestTextDecoderRejectsDeltaFirst(t *testing.T) {
	enc := &TextEncoder{Captioner: textsem.Captioner{}, KeyframeInterval: 100}
	enc.Encode(testSeq.FrameAt(0)) // keyframe consumed by nobody
	ef, _ := enc.Encode(testSeq.FrameAt(1))
	dec := &TextDecoder{}
	if _, err := dec.Decode(toFrames(ef)); err == nil {
		t.Error("delta-before-keyframe accepted")
	}
}

func TestImageCodecColdStartAndFineTune(t *testing.T) {
	// Small rig for speed.
	seq := &capture.Sequence{
		Model:  testModel,
		Motion: body.Talking(nil),
		Rig:    capture.NewRing(3, 2.5, 1.0, geom.V3(0, 1.0, 0), 24, math.Pi/3, 18),
		FPS:    30,
		Render: capture.SkinShader(),
	}
	enc := &ImageEncoder{
		Scene: nerf.Scene{
			Bounds:  geom.NewAABB(geom.V3(-1, -0.1, -1), geom.V3(1, 2.0, 1)),
			Near:    1.2,
			Far:     4.0,
			Samples: 16,
		},
		Widths: []int{8, 16},
	}
	viewCam := seq.Rig.Cameras[0]
	dec := &ImageDecoder{
		ColdStartSteps: 60,
		FineTuneSteps:  10,
		RayStride:      1,
		ViewCamera:     &viewCam,
		Seed:           19,
	}
	// Frame 0: header + views, cold start.
	c0 := seq.FrameAt(0)
	ef0, err := enc.Encode(c0)
	if err != nil {
		t.Fatal(err)
	}
	if ef0.Channels[0].Channel != ChanImageHeader {
		t.Fatal("first frame must carry the header")
	}
	d0, err := dec.Decode(toFrames(ef0))
	if err != nil {
		t.Fatal(err)
	}
	if d0.NovelView == nil {
		t.Fatal("no novel view rendered")
	}
	// Frame 1: no header, fine-tune path.
	ef1, err := enc.Encode(seq.FrameAt(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range ef1.Channels {
		if ch.Channel == ChanImageHeader {
			t.Fatal("header resent")
		}
	}
	if _, err := dec.Decode(toFrames(ef1)); err != nil {
		t.Fatal(err)
	}
	// The trained model must beat an untrained one on view 0.
	gt := seq.Rig.CaptureFrames(c0.Mesh, capture.SkinShader())[0]
	trained, err := dec.RenderNovelView(viewCam, 16)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := nerf.NewNet([]int{8, 16}, 99)
	unstrained := fresh.RenderView(nerf.Scene{
		Bounds: enc.Scene.Bounds, Near: enc.Scene.Near, Far: enc.Scene.Far, Samples: enc.Scene.Samples,
	}, viewCam, 16)
	pT := metrics.PSNR(trained.Color, gt.Color)
	pU := metrics.PSNR(unstrained.Color, gt.Color)
	if pT <= pU {
		t.Errorf("trained PSNR %.1f !> untrained %.1f", pT, pU)
	}
}

func TestHybridCodecGraftsFovealMesh(t *testing.T) {
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	enc := &HybridEncoder{
		Keypoint:    newKeypointEncoder(false),
		Selector:    sel,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	dec := &HybridDecoder{
		Model:                testModel,
		Codec:                compress.LZR(),
		PeripheralResolution: 32,
		Selector:             sel,
	}
	anchor := geom.V3(0, 1.5, 0.1) // looking at the face
	enc.SetGazeAnchor(anchor)
	dec.SetGazeAnchor(anchor)

	c := testSeq.FrameAt(4)
	ef, err := enc.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	// Pose + foveal mesh channels.
	if len(ef.Channels) != 2 {
		t.Fatalf("%d channels", len(ef.Channels))
	}
	// Hybrid costs more than keypoints alone but far less than the
	// full mesh (the §3.1 trade-off).
	kpOnly, _ := newKeypointEncoder(false).Encode(c)
	full, _ := (&TraditionalEncoder{}).Encode(c)
	if ef.TotalBytes() <= kpOnly.TotalBytes() {
		t.Errorf("hybrid %d ≤ keypoint %d bytes", ef.TotalBytes(), kpOnly.TotalBytes())
	}
	if ef.TotalBytes() >= full.TotalBytes() {
		t.Errorf("hybrid %d ≥ traditional %d bytes", ef.TotalBytes(), full.TotalBytes())
	}

	data, err := dec.Decode(toFrames(ef))
	if err != nil {
		t.Fatal(err)
	}
	if data.Mesh == nil {
		t.Fatal("no merged mesh")
	}
	// Quality near the anchor must beat pure-keypoint reconstruction at
	// the same peripheral resolution.
	nearAnchor := func(m interface {
		SamplePoints(int) []geom.Vec3
	}) []geom.Vec3 {
		var pts []geom.Vec3
		for _, p := range m.SamplePoints(6000) {
			if p.Dist(anchor) < 0.25 {
				pts = append(pts, p)
			}
		}
		return pts
	}
	truthNear := nearAnchor(c.Mesh)
	hybridNear := nearAnchor(data.Mesh)
	kpDec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 32}
	kpData, err := kpDec.Decode(toFrames(kpOnly))
	if err != nil {
		t.Fatal(err)
	}
	kpNear := nearAnchor(kpData.Mesh)
	if len(truthNear) == 0 || len(hybridNear) == 0 || len(kpNear) == 0 {
		t.Fatal("no samples near anchor")
	}
	hybridErr := metrics.CompareClouds(hybridNear, truthNear, 0.02).Chamfer
	kpErr := metrics.CompareClouds(kpNear, truthNear, 0.02).Chamfer
	if hybridErr >= kpErr {
		t.Errorf("foveal quality not better: hybrid %.4f vs keypoint %.4f", hybridErr, kpErr)
	}
}

func TestAdaptiveDecoderDemuxes(t *testing.T) {
	ad := &AdaptiveDecoder{
		Keypoint:    &KeypointDecoder{Model: testModel, Codec: compress.LZR()},
		Traditional: &TraditionalDecoder{},
		Text:        &TextDecoder{Codec: compress.LZR()},
	}
	c := testSeq.FrameAt(6)

	kpEF, _ := newKeypointEncoder(false).Encode(c)
	if d, err := ad.Decode(toFrames(kpEF)); err != nil || d.Params == nil {
		t.Errorf("keypoint demux: %v", err)
	}
	tradEF, _ := (&TraditionalEncoder{}).Encode(c)
	if d, err := ad.Decode(toFrames(tradEF)); err != nil || d.Mesh == nil {
		t.Errorf("traditional demux: %v", err)
	}
	textEnc := &TextEncoder{Captioner: textsem.Captioner{}, Codec: compress.LZR()}
	textEF, _ := textEnc.Encode(c)
	if d, err := ad.Decode(toFrames(textEF)); err != nil || d.Cloud == nil {
		t.Errorf("text demux: %v", err)
	}
}

func TestRawMeshRoundTrip(t *testing.T) {
	m := testSeq.FrameAt(0).Mesh
	raw := rawMeshBytes(m)
	back, err := meshFromRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Vertices) != len(m.Vertices) || len(back.Faces) != len(m.Faces) {
		t.Fatal("sizes changed")
	}
	for i := range m.Vertices {
		if back.Vertices[i] != m.Vertices[i] {
			t.Fatal("vertex changed (raw codec must be lossless)")
		}
	}
	if _, err := meshFromRaw(raw[:len(raw)-4]); err == nil {
		t.Error("truncated raw mesh accepted")
	}
}

func TestDecoderChannelValidation(t *testing.T) {
	bogus := []transport.Frame{{Type: transport.TypeSemantic, Channel: 999, Flags: transport.FlagEndOfFrame}}
	for _, d := range []Decoder{
		&KeypointDecoder{Model: testModel, Codec: compress.LZR()},
		&TraditionalDecoder{},
		&TextDecoder{},
	} {
		if _, err := d.Decode(bogus); err == nil {
			t.Errorf("%s accepted bogus channel", d.Mode())
		}
	}
}

func TestTraditionalLODLadder(t *testing.T) {
	c := testSeq.FrameAt(7)
	full := &TraditionalEncoder{}
	lod := &TraditionalEncoder{TargetFaces: 800}
	efFull, _ := full.Encode(c)
	efLOD, _ := lod.Encode(c)
	if efLOD.TotalBytes() >= efFull.TotalBytes() {
		t.Errorf("LOD frame %d B not smaller than full %d B", efLOD.TotalBytes(), efFull.TotalBytes())
	}
	dec := &TraditionalDecoder{}
	data, err := dec.Decode(toFrames(efLOD))
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Mesh.Faces) > 850 {
		t.Errorf("decoded LOD has %d faces", len(data.Mesh.Faces))
	}
	// Shape still human-scale despite the decimation.
	rep := metrics.CompareMeshes(data.Mesh, c.Mesh, 3000, 0.02)
	if rep.Chamfer > 0.03 {
		t.Errorf("LOD chamfer %.4f m", rep.Chamfer)
	}
}

func TestCloudModeRoundTrip(t *testing.T) {
	// Dense fusion: the realistic capture-density regime where the
	// cloud dwarfs the keypoint stream.
	enc := &CloudEncoder{Fuse: pointcloud.FuseOptions{Stride: 1, Voxel: 0.008}}
	dec := &CloudDecoder{}
	c := testSeq.FrameAt(5)
	ef, err := enc.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dec.Decode(toFrames(ef))
	if err != nil {
		t.Fatal(err)
	}
	if data.Cloud == nil {
		t.Fatal("no cloud decoded")
	}
	if data.Cloud.Len() < 200 {
		t.Fatalf("cloud too sparse: %d points", data.Cloud.Len())
	}
	// The decoded cloud must lie on the captured surface.
	rep := metrics.CompareClouds(data.Cloud.Points, c.Mesh.SamplePoints(4000), 0.02)
	if rep.Chamfer > 0.03 {
		t.Errorf("cloud mode chamfer %.4f", rep.Chamfer)
	}
	// And like the mesh baseline, it dwarfs the keypoint stream.
	kp, _ := newKeypointEncoder(false).Encode(c)
	if ef.TotalBytes() < 5*kp.TotalBytes() {
		t.Errorf("cloud frame %d B suspiciously close to keypoint %d B",
			ef.TotalBytes(), kp.TotalBytes())
	}
}

func TestKeypointLiftingPath(t *testing.T) {
	rgbd := newKeypointEncoder(false)
	lifted := newKeypointEncoder(false)
	lifted.UseLifting = true
	c := testSeq.FrameAt(9)
	efR, err := rgbd.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	efL, err := lifted.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 0}
	dataR, err := dec.Decode(toFrames(efR))
	if err != nil {
		t.Fatal(err)
	}
	dataL, err := dec.Decode(toFrames(efL))
	if err != nil {
		t.Fatal(err)
	}
	// Both paths deliver usable poses; RGB-D is at least as accurate
	// (the taxonomy's §2.3 comparison).
	truthKps := testModel.Keypoints(c.Truth)
	errOf := func(p *body.Params) float64 {
		implied := testModel.Keypoints(p)
		var s float64
		for i := 0; i < body.NumJoints; i++ {
			s += implied[i].Dist(truthKps[i])
		}
		return s / float64(body.NumJoints)
	}
	eR, eL := errOf(dataR.Params), errOf(dataL.Params)
	if eL > 0.15 {
		t.Errorf("lifting path unusable: %.3f m", eL)
	}
	if eR > eL*1.5 {
		t.Errorf("RGB-D (%.4f) much worse than lifting (%.4f), contradicting §2.3", eR, eL)
	}
}
