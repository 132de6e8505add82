// End-to-end tests of the one decode path: what a tenant does beyond
// calling its decoder — the tier-switch reset and the terminating hop —
// driven the way receivers drive it. This lives in package service_test
// so it can run pipeline.RunReceiver, which imports this package.
package service_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/core"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/par"
	"semholo/internal/pipeline"
	"semholo/internal/service"
	"semholo/internal/transport"
)

// A short captured sequence of the shared test model.
var (
	seqModel = body.NewModel(nil, body.ModelOptions{Detail: 1})
	seq      = &capture.Sequence{
		Model:  seqModel,
		Motion: body.Talking(nil),
		Rig:    capture.NewRing(4, 2.5, 1.0, geom.V3(0, 1.0, 0), 96, math.Pi/3, 17),
		FPS:    30,
		Render: capture.SkinShader(),
	}
)

func newKeypointEncoder() *core.KeypointEncoder {
	return &core.KeypointEncoder{
		Model:    seqModel,
		Detector: keypoint.NewDetector(keypoint.DefaultDetector()),
		Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
		Codec:    compress.LZR(),
	}
}

// tieredRaw converts one rung of a ladder frame into the RawFrame a
// tiering relay would deliver, optionally carrying the tier-switch
// marker. Payloads are copied: the ladder reuses its scratch.
func tieredRaw(lf core.LadderFrame, tier int, switched bool) core.RawFrame {
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
	return core.RawFrame{Frames: frames}
}

// TestMidStreamTierSwitchMatchesColdDecode drives a 50-frame motion
// sequence through a tenant's StreamCtx.Decode with a forced downgrade
// at frame 17 (keypoint+texture → keypoint) and a forced upgrade at
// frame 34 (keypoint → hybrid). After each switch the decoded mesh of
// every post-switch frame must be byte-identical to a decoder
// cold-started at the switch boundary — proving the tenant's tier-switch
// reset leaves no warm state from the old tier behind — at worker
// counts 1 and 4.
func TestMidStreamTierSwitchMatchesColdDecode(t *testing.T) {
	const (
		frames    = 50
		downgrade = 17
		upgrade   = 34
	)
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	anchor := geom.V3(0, 1.5, 0.1)
	hybrid := &core.HybridEncoder{
		Keypoint:    newKeypointEncoder(),
		Selector:    sel,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	hybrid.SetGazeAnchor(anchor)
	ladder, err := core.NewSemanticLadder(newKeypointEncoder(), hybrid, [3]float64{0.3e6, 2e6, 8e6})
	if err != nil {
		t.Fatal(err)
	}
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
	raws := make([]core.RawFrame, frames)
	for i := 0; i < frames; i++ {
		lf, err := ladder.EncodeAll(seq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = tieredRaw(lf, tierAt(i), i == downgrade || i == upgrade)
	}

	for _, workers := range []int{1, 4} {
		newKP := func() *core.KeypointDecoder {
			return &core.KeypointDecoder{Model: seqModel, Codec: compress.LZR(), Resolution: 24, Workers: workers}
		}
		newHy := func() *core.HybridDecoder {
			hy := &core.HybridDecoder{Model: seqModel, Codec: compress.LZR(), PeripheralResolution: 16, Selector: sel, Workers: workers}
			hy.SetGazeAnchor(anchor)
			return hy
		}
		svc := service.New(service.Options{
			Pool: par.NewPool(workers),
			NewDecoder: func(service.Options) core.Decoder {
				return &core.AdaptiveDecoder{Keypoint: newKP(), Hybrid: newHy()}
			},
		})
		st, err := svc.Admit("viewer")
		if err != nil {
			t.Fatal(err)
		}
		// Cold references, fed only the post-switch frames.
		coldKP, coldHy := newKP(), newHy()

		for i := 0; i < frames; i++ {
			data, err := st.Decode(context.Background(), raws[i])
			if err != nil {
				t.Fatalf("workers=%d frame %d: %v", workers, i, err)
			}
			if i < downgrade {
				continue // pre-switch frames only feed the tenant's decoder state
			}
			var ref core.FrameData
			if tierAt(i) == 0 {
				ref, err = coldKP.Decode(raws[i].Frames)
			} else {
				ref, err = coldHy.Decode(raws[i].Frames)
			}
			if err != nil {
				t.Fatalf("workers=%d cold frame %d: %v", workers, i, err)
			}
			if !reflect.DeepEqual(data.Mesh, ref.Mesh) {
				t.Fatalf("workers=%d frame %d: switched-stream mesh differs from cold decode", workers, i)
			}
		}
		svc.Close()
	}
}

// attach dials one client into the relay over an unshaped emulated link
// and returns the client's end once the relay has registered it.
func attach(t *testing.T, r *core.Relay, name string) *transport.Session {
	t.Helper()
	a, b, link := netsim.Pipe(netsim.LinkConfig{})
	t.Cleanup(link.Close)
	type hs struct {
		s   *transport.Session
		err error
	}
	ch := make(chan hs, 1)
	go func() {
		s, _, err := transport.Accept(b, transport.Hello{Peer: "relay"})
		ch <- hs{s, err}
	}()
	sess, _, err := transport.Dial(a, transport.Hello{Peer: name})
	if err != nil {
		t.Fatal(err)
	}
	h := <-ch
	if h.err != nil {
		t.Fatal(h.err)
	}
	if _, err := r.Attach(name, h.s); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestRelayHopStampingEndToEnd drives one traced frame through the full
// sender → relay → staged receiver path and checks the hop-annotated
// trace the receiving tenant completes: the wire carries sender,
// relay-ingress and relay-egress records in path order, the service
// terminates the path with its own hop opened at the frame's arrival,
// and the waterfall telescopes to the end-to-end span.
func TestRelayHopStampingEndToEnd(t *testing.T) {
	obs.Flight.Reset()
	defer obs.Flight.Reset()
	obs.Traces.Reset()
	defer obs.Traces.Reset()

	r := core.NewRelayOpts(t.Context(), core.RelayOptions{Site: 2})
	defer r.Close()
	// Alice attaches first (block 0), so channels arrive un-shifted and
	// bob's tenant decodes them directly.
	alice := attach(t, r, "alice")
	bob := attach(t, r, "bob")

	sender := &core.Sender{
		Session: alice,
		Encoder: newKeypointEncoder(),
		Obs:     obs.NewPipelineMetrics(obs.NewRegistry()),
		Site:    1,
	}
	svc := service.New(service.Options{Model: seqModel, Site: 3})
	defer svc.Close()
	st, err := svc.Admit("bob")
	if err != nil {
		t.Fatal(err)
	}
	pm := obs.NewPipelineMetrics(obs.NewRegistry())

	capturedAt := time.Now()
	enc, err := sender.EncodeFrame(seq.FrameAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Transmit(enc, capturedAt); err != nil {
		t.Fatal(err)
	}
	var data core.FrameData
	if _, err := pipeline.RunReceiver(t.Context(), &core.Receiver{Session: bob}, st, func(d core.FrameData) error {
		data = d
		return nil
	}, pipeline.ReceiverOptions{Frames: 1, Lossless: true, Metrics: pm}); err != nil {
		t.Fatal(err)
	}
	if data.Trace == nil {
		t.Fatal("relayed frame lost its trace")
	}
	tr := *data.Trace

	wantPath := []struct {
		kind obs.HopKind
		site byte
	}{
		{obs.HopSender, 1},
		{obs.HopRelayIngress, 2},
		{obs.HopRelayEgress, 2},
		{obs.HopService, 3},
	}
	if len(tr.Hops) != len(wantPath) {
		t.Fatalf("trace has %d hops %+v, want %d", len(tr.Hops), tr.Hops, len(wantPath))
	}
	for i, w := range wantPath {
		h := tr.Hops[i]
		if h.Kind != w.kind || h.Site != w.site {
			t.Errorf("hop %d = %s/%d, want %s/%d", i, h.Kind, h.Site, w.kind, w.site)
		}
		if h.SendMicros < h.RecvMicros {
			t.Errorf("hop %d send %d before recv %d", i, h.SendMicros, h.RecvMicros)
		}
		if i > 0 && h.RecvMicros < tr.Hops[i-1].SendMicros {
			t.Errorf("hop %d recv %d before hop %d send %d",
				i, h.RecvMicros, i-1, tr.Hops[i-1].SendMicros)
		}
	}
	// The path starts at capture, the service hop opens at arrival, and
	// the path ends at decode completion.
	if tr.Hops[0].RecvMicros != uint64(capturedAt.UnixMicro()) {
		t.Errorf("sender hop recv %d, want capture stamp %d",
			tr.Hops[0].RecvMicros, capturedAt.UnixMicro())
	}
	if got := tr.Hops[3].RecvMicros; got != uint64(tr.ArrivedAt.UnixMicro()) {
		t.Errorf("service hop recv %d, want arrival stamp %d", got, tr.ArrivedAt.UnixMicro())
	}
	if got := tr.Hops[3].SendMicros; got != uint64(tr.DecodedAt.UnixMicro()) {
		t.Errorf("service hop send %d, want decode stamp %d", got, tr.DecodedAt.UnixMicro())
	}
	// Acceptance invariant: the waterfall telescopes to the e2e span (up
	// to the microsecond quantization of the wire stamps).
	e2eMs := tr.E2E().Seconds() * 1e3
	if diff := math.Abs(tr.HopSumMs() - e2eMs); diff > 0.002 {
		t.Errorf("hop-sum %.6f ms vs e2e %.6f ms (diff %.6f)", tr.HopSumMs(), e2eMs, diff)
	}

	// The completed trace is published for /debug/trace/<id>.
	stored, ok := obs.Traces.Get(tr.TraceID)
	if !ok || len(stored.Hops) != 4 {
		t.Errorf("trace %d not in store (ok=%v hops=%d)", tr.TraceID, ok, len(stored.Hops))
	}
	// The e2e histogram's exemplar names this frame, and the stored trace
	// it resolves to renders as a waterfall.
	if sec, id := pm.E2EExemplar(); id != tr.TraceID || sec <= 0 {
		t.Errorf("e2e exemplar = trace %d at %.6f s, want trace %d", id, sec, tr.TraceID)
	}
	if out := obs.RenderWaterfall(stored); !strings.Contains(out, "service") || !strings.Contains(out, "hop-sum") {
		t.Errorf("waterfall not rendered:\n%s", out)
	}
	// And the flight recorder attributed the relay legs to the frame.
	var sawIngress, sawEgress bool
	for _, ev := range obs.Flight.EventsFor(tr.TraceID) {
		switch ev.Kind {
		case obs.EvRelayIngress:
			sawIngress = true
		case obs.EvRelayEgress:
			sawEgress = true
		}
	}
	if !sawIngress || !sawEgress {
		t.Errorf("flight recorder missing relay legs (ingress=%v egress=%v)", sawIngress, sawEgress)
	}
}
