package core

import (
	"testing"
	"time"

	"semholo/internal/body"
	"semholo/internal/compress"
	"semholo/internal/geom"
	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// startSession builds a connected sender/receiver pair over an emulated
// link.
func startSession(t *testing.T, cfg netsim.LinkConfig, enc Encoder, dec Decoder) (*Sender, *Receiver, *netsim.Link) {
	t.Helper()
	a, b, link := netsim.Pipe(cfg)
	type res struct {
		s   *transport.Session
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, _, err := transport.Accept(b, transport.Hello{Peer: "receiver", Mode: string(dec.Mode())})
		ch <- res{s, err}
	}()
	sa, _, err := transport.Dial(a, transport.Hello{Peer: "sender", Mode: string(enc.Mode())})
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	sender := &Sender{Session: sa, Encoder: enc}
	receiver := &Receiver{Session: r.s, Decoder: dec}
	return sender, receiver, link
}

func TestEndToEndKeypointSession(t *testing.T) {
	enc := newKeypointEncoder(false)
	dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 32}
	sender, receiver, link := startSession(t, netsim.BroadbandUS(23), enc, dec)
	defer link.Close()
	sender.Obs = obs.NewPipelineMetrics(obs.NewRegistry())
	receiver.Obs = obs.NewPipelineMetrics(obs.NewRegistry())

	const nFrames = 5
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < nFrames; i++ {
			if err := sender.SendFrame(testSeq.FrameAt(i)); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()

	for i := 0; i < nFrames; i++ {
		data, err := receiver.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if data.Params == nil || data.Mesh == nil {
			t.Fatalf("frame %d incomplete", i)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// Timing recorded on both ends.
	stageCount := func(r obs.BudgetReport, stage string) uint64 {
		for _, s := range r.Stages {
			if s.Stage == stage {
				return s.Count
			}
		}
		return 0
	}
	if stageCount(receiver.Obs.Report(), obs.StageDecode) != nFrames {
		t.Error("decode spans missing")
	}
	if stageCount(sender.Obs.Report(), obs.StageEncode) != nFrames {
		t.Error("encode spans missing")
	}
	// Keypoint mode over the paper's 25 Mbps broadband: trivially fits.
	sent := sender.Session.Stats().BytesSent
	perFrame := float64(sent) / nFrames
	if perFrame > 4096 {
		t.Errorf("keypoint session sends %.0f bytes/frame", perFrame)
	}
}

func TestEndToEndTraditionalSessionSlower(t *testing.T) {
	// The same motion over the same link with traditional encoding must
	// move orders of magnitude more data — Table 2 live on the wire.
	link := netsim.LinkConfig{Bandwidth: 100e6, MTU: 32 * 1024}
	encT := &TraditionalEncoder{}
	decT := &TraditionalDecoder{}
	senderT, receiverT, linkT := startSession(t, link, encT, decT)
	defer linkT.Close()

	go senderT.SendFrame(testSeq.FrameAt(0))
	if _, err := receiverT.NextFrame(); err != nil {
		t.Fatal(err)
	}
	sentT := senderT.Session.Stats().BytesSent

	encK := newKeypointEncoder(false)
	decK := &KeypointDecoder{Model: testModel, Codec: compress.LZR()}
	senderK, receiverK, linkK := startSession(t, link, encK, decK)
	defer linkK.Close()
	go senderK.SendFrame(testSeq.FrameAt(0))
	if _, err := receiverK.NextFrame(); err != nil {
		t.Fatal(err)
	}
	sentK := senderK.Session.Stats().BytesSent

	if ratio := float64(sentT) / float64(sentK); ratio < 10 {
		t.Errorf("wire ratio traditional/keypoint = %.1f", ratio)
	}
}

func TestGazeControlReachesSenderEncoder(t *testing.T) {
	enc := newKeypointEncoder(false)
	dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR()}
	sender, receiver, link := startSession(t, netsim.LinkConfig{}, enc, dec)
	defer link.Close()

	got := make(chan geom.Vec3, 1)
	sender.OnGaze = func(p geom.Vec3) { got <- p }

	// Sender listens for control frames on its own session.
	go func() {
		f, err := sender.Session.Recv()
		if err != nil {
			return
		}
		if f.Type == transport.TypeControl {
			_ = sender.HandleControl(f)
		}
	}()
	anchor := geom.V3(0.1, 1.5, 0.2)
	if err := receiver.ReportGaze(anchor); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p.Dist(anchor) > 1e-12 {
			t.Errorf("gaze anchor %v, want %v", p, anchor)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("gaze report never arrived")
	}
}

// TestHandleControlIgnoresRetiredKinds pins the control plane after the
// receiver bandwidth-report loop was retired: a parent-era "bandwidth"
// or "mode" message, like any unknown kind, is accepted and ignored,
// malformed JSON is an error, and gaze and keyframe still dispatch.
func TestHandleControlIgnoresRetiredKinds(t *testing.T) {
	var gazes, keyframes []any
	s := &Sender{
		OnGaze:            func(p geom.Vec3) { gazes = append(gazes, p) },
		OnKeyframeRequest: func(tier int) { keyframes = append(keyframes, tier) },
	}
	control := func(payload string) error {
		return s.HandleControl(transport.Frame{Type: transport.TypeControl, Payload: []byte(payload)})
	}
	for _, payload := range []string{
		`{"kind":"bandwidth","bps":2500000}`,
		`{"kind":"mode","mode":"keypoint"}`,
		`{"kind":"teleport","tier":2,"gaze":[1,2,3]}`,
	} {
		if err := control(payload); err != nil {
			t.Errorf("%s: %v", payload, err)
		}
	}
	if len(gazes)+len(keyframes) != 0 {
		t.Fatalf("ignored kinds dispatched: gaze %v, keyframe %v", gazes, keyframes)
	}
	if err := control(`{"kind":`); err == nil {
		t.Error("malformed control message accepted")
	}
	if err := control(`{"kind":"gaze","gaze":[0.1,1.5,0.2]}`); err != nil {
		t.Fatal(err)
	}
	if err := control(`{"kind":"keyframe","tier":2}`); err != nil {
		t.Fatal(err)
	}
	if len(gazes) != 1 || gazes[0] != geom.V3(0.1, 1.5, 0.2) {
		t.Errorf("gaze dispatch %v", gazes)
	}
	if len(keyframes) != 1 || keyframes[0] != 2 {
		t.Errorf("keyframe dispatch %v", keyframes)
	}
}

func TestSessionGracefulClose(t *testing.T) {
	enc := newKeypointEncoder(false)
	dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR()}
	sender, receiver, link := startSession(t, netsim.LinkConfig{}, enc, dec)
	defer link.Close()
	go sender.Session.Close()
	_, err := receiver.NextFrame()
	if err != ErrSessionClosed {
		t.Errorf("err = %v, want ErrSessionClosed", err)
	}
}

// Failure injection: a frame corrupted on the wire must surface as a
// checksum error, not silently decode.
func TestCorruptFrameDetected(t *testing.T) {
	a, b, link := netsim.Pipe(netsim.LinkConfig{})
	defer link.Close()
	go func() {
		// Serialize a valid frame, then corrupt it on the wire.
		var buf corruptBuffer
		fw := transport.NewFrameWriter(&buf)
		params := (&body.Params{}).Marshal()
		fw.WriteFrame(&transport.Frame{
			Type:    transport.TypeSemantic,
			Channel: ChanKeypointData,
			Flags:   transport.FlagCompressed | transport.FlagEndOfFrame,
			Payload: compress.LZR().Encode(params),
		})
		wire := buf.data
		wire[len(wire)/2] ^= 0xFF
		a.Write(wire)
	}()
	fr := transport.NewFrameReader(b)
	if _, err := fr.ReadFrame(); err == nil {
		t.Fatal("corrupted frame passed CRC")
	}
}

type corruptBuffer struct{ data []byte }

func (c *corruptBuffer) Write(p []byte) (int, error) {
	c.data = append(c.data, p...)
	return len(p), nil
}
