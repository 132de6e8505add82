package core

import (
	"bytes"
	"testing"

	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/textsem"
	"semholo/internal/transport"
)

// newSemanticLadderFixture builds the three-rung ladder plus the gaze
// selector both ends of the tests share.
func newSemanticLadderFixture(t *testing.T) (*TierLadder, gaze.FovealSelector, geom.Vec3) {
	t.Helper()
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	anchor := geom.V3(0, 1.5, 0.1)
	hybrid := &HybridEncoder{
		Keypoint:    newKeypointEncoder(false),
		Selector:    sel,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	hybrid.SetGazeAnchor(anchor)
	ladder, err := NewSemanticLadder(newKeypointEncoder(false), hybrid, [3]float64{0.3e6, 2e6, 8e6})
	if err != nil {
		t.Fatal(err)
	}
	return ladder, sel, anchor
}

func framesEqual(t *testing.T, tag string, got, want EncodedFrame) {
	t.Helper()
	if len(got.Channels) != len(want.Channels) {
		t.Fatalf("%s: %d channels, want %d", tag, len(got.Channels), len(want.Channels))
	}
	for i := range got.Channels {
		g, w := got.Channels[i], want.Channels[i]
		if g.Channel != w.Channel || g.Flags != w.Flags || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("%s channel %d: (ch=%d flags=%#x %dB) != (ch=%d flags=%#x %dB)",
				tag, i, g.Channel, g.Flags, len(g.Payload), w.Channel, w.Flags, len(w.Payload))
		}
	}
}

func TestTierLadderValidation(t *testing.T) {
	kp := newKeypointEncoder(false)
	cases := []struct {
		name  string
		tiers []Tier
	}{
		{"empty", nil},
		{"no tier0 encoder", []Tier{{Name: "a", Bitrate: 1, Derive: func(c capture.Capture, lower EncodedFrame) (EncodedFrame, error) { return lower, nil }}}},
		{"flat bitrates", []Tier{{Name: "a", Bitrate: 2, Encoder: kp}, {Name: "b", Bitrate: 2, Encoder: kp}}},
		{"tier without encoder or derive", []Tier{{Name: "a", Bitrate: 1, Encoder: kp}, {Name: "b", Bitrate: 2}}},
	}
	for _, tc := range cases {
		if _, err := NewTierLadder(tc.tiers); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	over := make([]Tier, transport.MaxTiers+1)
	for i := range over {
		over[i] = Tier{Name: "t", Bitrate: float64(i + 1), Encoder: kp}
	}
	if _, err := NewTierLadder(over); err == nil {
		t.Error("accepted ladder above MaxTiers")
	}
}

// TestTierLadderOfOneByteIdentity pins the regression contract: a
// ladder of one tier is the plain encoder — every frame's channels are
// byte-identical to a separate encoder instance fed the same sequence.
func TestTierLadderOfOneByteIdentity(t *testing.T) {
	ladder, err := NewTierLadder([]Tier{{Name: "keypoint", Bitrate: 0.3e6, Encoder: newKeypointEncoder(false)}})
	if err != nil {
		t.Fatal(err)
	}
	ref := newKeypointEncoder(false)
	for i := 0; i < 6; i++ {
		c := testSeq.FrameAt(i)
		lf, err := ladder.EncodeAll(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(lf.Tiers) != 1 {
			t.Fatalf("%d tiers", len(lf.Tiers))
		}
		want, err := ref.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		framesEqual(t, "frame", lf.Tiers[0], want)
	}
}

// TestSemanticLadderMatchesSingleEncoders pins each rung of the shared
// ladder against the standalone encoder it replaces: tier 0 against
// KeypointEncoder, tier 1 against KeypointEncoder{SendTexture: true},
// tier 2 against HybridEncoder — byte-identical across a motion
// sequence, even though the ladder runs keypoint detection and the
// body fit once per capture instead of three times.
func TestSemanticLadderMatchesSingleEncoders(t *testing.T) {
	ladder, sel, anchor := newSemanticLadderFixture(t)
	refKP := newKeypointEncoder(false)
	refTex := newKeypointEncoder(true)
	refHybrid := &HybridEncoder{
		Keypoint:    newKeypointEncoder(true),
		Selector:    sel,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	refHybrid.SetGazeAnchor(anchor)

	for i := 0; i < 5; i++ {
		c := testSeq.FrameAt(i)
		lf, err := ladder.EncodeAll(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(lf.Tiers) != 3 {
			t.Fatalf("%d tiers", len(lf.Tiers))
		}
		wantKP, _ := refKP.Encode(c)
		framesEqual(t, "tier0", lf.Tiers[0], wantKP)
		wantTex, _ := refTex.Encode(c)
		framesEqual(t, "tier1", lf.Tiers[1], wantTex)
		wantHybrid, err := refHybrid.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		framesEqual(t, "tier2", lf.Tiers[2], wantHybrid)
	}
}

// TestTextLadderKeyframeRequest exercises the tier-switch keyframe
// protocol against a delta-coded rung: after RequestKeyframe the next
// frame at that rung is a self-contained keyframe, not a delta.
func TestTextLadderKeyframeRequest(t *testing.T) {
	text := &TextEncoder{Captioner: textsem.Captioner{}, Codec: compress.LZR(), KeyframeInterval: 1000}
	ladder, err := NewTierLadder([]Tier{{Name: "text", Bitrate: 0.05e6, Encoder: text}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ladder.EncodeAll(testSeq.FrameAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	lf, _ := ladder.EncodeAll(testSeq.FrameAt(3))
	if lf.Tiers[0].Channels[0].Flags&transport.FlagKeyframe != 0 {
		t.Fatal("frame 3 unexpectedly a keyframe (interval should be far off)")
	}
	ladder.RequestKeyframe(0)
	lf, _ = ladder.EncodeAll(testSeq.FrameAt(4))
	if lf.Tiers[0].Channels[0].Flags&transport.FlagKeyframe == 0 {
		t.Fatal("RequestKeyframe did not force a keyframe")
	}
}

// tieredRaw converts one rung of a ladder frame into the RawFrame a
// receiver would collect off the wire, tier-stamped, with the
// tier-switch marker on the first wire frame when switched.
func tieredRaw(lf LadderFrame, tier int, switched bool) RawFrame {
	enc := lf.Tiers[tier]
	frames := make([]transport.Frame, 0, len(enc.Channels))
	for i, ch := range enc.Channels {
		f := transport.Frame{
			Type: transport.TypeSemantic, Channel: ch.Channel,
			Flags:     ch.Flags | transport.FlagTier,
			Tier:      uint8(tier),
			TierCount: uint8(len(lf.Tiers)),
			Payload:   append([]byte(nil), ch.Payload...),
		}
		if switched && i == 0 {
			f.Flags |= transport.FlagTierSwitch
		}
		frames = append(frames, f)
	}
	return RawFrame{Frames: frames}
}

func meshesIdentical(a, b *mesh.Mesh) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Vertices) != len(b.Vertices) || len(a.Faces) != len(b.Faces) {
		return false
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			return false
		}
	}
	for i := range a.Faces {
		if a.Faces[i] != b.Faces[i] {
			return false
		}
	}
	return true
}

// TestMidStreamTierSwitchMatchesColdDecode drives a 50-frame motion
// sequence through a tiered receiver with a forced downgrade at frame
// 17 (keypoint+texture → keypoint) and a forced upgrade at frame 34
// (keypoint → hybrid). After each switch the decoded mesh of every
// post-switch frame must be byte-identical to a decoder cold-started
// at the switch boundary — proving the tier-switch reset leaves no
// warm state from the old tier behind — at worker counts 1 and 4.
func TestMidStreamTierSwitchMatchesColdDecode(t *testing.T) {
	const (
		frames    = 50
		downgrade = 17
		upgrade   = 34
	)
	ladder, sel, anchor := newSemanticLadderFixture(t)
	tierAt := func(i int) int {
		switch {
		case i < downgrade:
			return 1
		case i < upgrade:
			return 0
		default:
			return 2
		}
	}
	// Encode the whole sequence once; retain per-frame copies (the
	// ladder reuses its scratch between EncodeAll calls).
	raws := make([]RawFrame, frames)
	for i := 0; i < frames; i++ {
		lf, err := ladder.EncodeAll(testSeq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = tieredRaw(lf, tierAt(i), i == downgrade || i == upgrade)
	}

	for _, workers := range []int{1, 4} {
		kpDec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 24, WarmStart: true, Workers: workers}
		hyDec := &HybridDecoder{Model: testModel, Codec: compress.LZR(), PeripheralResolution: 16, Selector: sel, WarmStart: true, Workers: workers}
		hyDec.SetGazeAnchor(anchor)
		r := &Receiver{Decoder: &AdaptiveDecoder{Keypoint: kpDec, Hybrid: hyDec}}

		// Cold references, created fresh at each switch boundary and fed
		// only the post-switch frames.
		coldKP := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 24, WarmStart: true, Workers: workers}
		coldHy := &HybridDecoder{Model: testModel, Codec: compress.LZR(), PeripheralResolution: 16, Selector: sel, WarmStart: true, Workers: workers}
		coldHy.SetGazeAnchor(anchor)

		for i := 0; i < frames; i++ {
			data, err := r.DecodeRaw(raws[i])
			if err != nil {
				t.Fatalf("workers=%d frame %d: %v", workers, i, err)
			}
			switch {
			case i == downgrade:
				// The texture the old tier shipped must be gone: serving it
				// against the new tier's frames would be a stale artifact.
				if tex, _, _ := kpDec.LastTexture(); tex != nil {
					t.Fatalf("workers=%d: stale texture survived the downgrade", workers)
				}
			case i < downgrade:
				continue // pre-switch frames only feed the streamed decoder's state
			}
			var ref FrameData
			if tierAt(i) == 0 {
				ref, err = coldKP.Decode(raws[i].Frames)
			} else {
				ref, err = coldHy.Decode(raws[i].Frames)
			}
			if err != nil {
				t.Fatalf("workers=%d cold frame %d: %v", workers, i, err)
			}
			if !meshesIdentical(data.Mesh, ref.Mesh) {
				t.Fatalf("workers=%d frame %d: switched-stream mesh differs from cold decode", workers, i)
			}
		}
	}
}
