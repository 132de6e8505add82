package core

import (
	"bytes"
	"testing"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/obs"
	"semholo/internal/textsem"
	"semholo/internal/texture"
	"semholo/internal/transport"
)

// newSemanticLadderFixture builds the three-rung ladder plus the gaze
// selector both ends of the tests share.
func newSemanticLadderFixture(t *testing.T) (*TierLadder, gaze.FovealSelector, geom.Vec3) {
	t.Helper()
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	anchor := geom.V3(0, 1.5, 0.1)
	hybrid := &HybridEncoder{
		Keypoint:    newKeypointEncoder(),
		Selector:    sel,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	hybrid.SetGazeAnchor(anchor)
	ladder, err := NewSemanticLadder(newKeypointEncoder(), hybrid, [3]float64{0.3e6, 2e6, 8e6})
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
	kp := newKeypointEncoder()
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
	ladder, err := NewTierLadder([]Tier{{Name: "keypoint", Bitrate: 0.3e6, Encoder: newKeypointEncoder()}})
	if err != nil {
		t.Fatal(err)
	}
	ref := newKeypointEncoder()
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
// ladder against a reference built without it, each pose switched to the
// quantised frame as the ladder switches its own: tier 0 against
// KeypointEncoder, tier 1 against that frame behind a texture channel
// built here (view 0, BTC-compressed), tier 2 against HybridEncoder
// behind the same texture channel — byte-identical across a motion
// sequence, even though the ladder runs keypoint detection and the body
// fit once per capture instead of three times. A standalone encoder left
// alone still ships the float64 frame.
func TestSemanticLadderMatchesSingleEncoders(t *testing.T) {
	ladder, sel, anchor := newSemanticLadderFixture(t)
	refKP := newKeypointEncoder()
	refHybrid := &HybridEncoder{
		Keypoint:    newKeypointEncoder(),
		Selector:    sel,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	refHybrid.SetGazeAnchor(anchor)
	refKP.compactPose, refHybrid.Keypoint.compactPose = true, true
	standalone := newKeypointEncoder()
	standalone.Codec = nil
	withTexture := func(c capture.Capture, f EncodedFrame) EncodedFrame {
		t.Helper()
		intr := c.Views[0].Camera.Intr
		tex, err := texture.CompressBTC(c.Views[0].Colors, intr.Width, intr.Height)
		if err != nil {
			t.Fatal(err)
		}
		return EncodedFrame{Channels: append([]ChannelPayload{{
			Channel: ChanTextureData,
			Flags:   transport.FlagKeyframe | transport.FlagCompressed,
			Payload: tex,
		}}, f.Channels...)}
	}

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
		if raw, _ := standalone.Encode(c); raw.TotalBytes() != body.MarshaledSize {
			t.Fatalf("frame %d: standalone encoder ships %d raw bytes, want the float64 frame's %d", i, raw.TotalBytes(), body.MarshaledSize)
		}
		framesEqual(t, "tier1", lf.Tiers[1], withTexture(c, wantKP))
		wantHybrid, err := refHybrid.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		framesEqual(t, "tier2", lf.Tiers[2], withTexture(c, wantHybrid))
	}
}

// TestSemanticLadderRung0FitsStarvedLeg is the machine-independent pin
// of the quantised rung 0: its pose payload is at most 40 % of a
// standalone encoder's float64 one, and its full wire frame — header,
// trace extension, one hop record, tier extension, CRC — at 30 fps stays
// below a 200 kbps leg's TierSelector headroom (200 kbps / 1.25), so a
// starved leg can carry every frame instead of shedding.
func TestSemanticLadderRung0FitsStarvedLeg(t *testing.T) {
	const (
		fps       = 30
		legBps    = 200e3
		headroom  = 1.25
		maxRatio  = 0.40
		numFrames = 8
	)
	ladder, _, _ := newSemanticLadderFixture(t)
	standalone := newKeypointEncoder()
	for i := 0; i < numFrames; i++ {
		c := testSeq.FrameAt(i)
		lf, err := ladder.EncodeAll(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := standalone.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		rung0 := lf.Tiers[0].Channels[0]
		if got, full := len(rung0.Payload), ref.TotalBytes(); float64(got) > maxRatio*float64(full) {
			t.Errorf("frame %d: rung-0 pose %d B is %.0f %% of the float64 frame's %d B, want ≤ %.0f %%",
				i, got, 100*float64(got)/float64(full), full, 100*maxRatio)
		}
		f := &transport.Frame{
			Type: transport.TypeSemantic, Channel: rung0.Channel,
			Flags: rung0.Flags | transport.FlagTrace | transport.FlagTier,
			Tier:  0, TierCount: uint8(len(lf.Tiers)),
			Payload: rung0.Payload,
		}
		f.AppendHop(obs.Hop{Kind: obs.HopSender})
		var wire bytes.Buffer
		if err := transport.NewFrameWriter(&wire).WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if bps := float64(wire.Len()*8) * fps; bps >= legBps/headroom {
			t.Errorf("frame %d: rung-0 wire frame %d B × %d fps = %.0f kbps, want < %.0f kbps",
				i, wire.Len(), fps, bps/1e3, legBps/headroom/1e3)
		}
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
