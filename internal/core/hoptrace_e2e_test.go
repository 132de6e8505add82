package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"semholo/internal/compress"
	"semholo/internal/obs"
)

// TestRelayHopStampingEndToEnd drives one traced frame through the full
// sender → relay → receiver path and checks the hop-annotated trace the
// receiver assembles: the wire carries sender, relay-ingress, and
// relay-egress records in path order, the receiver terminates the path
// with its own hop, and the waterfall telescopes to the end-to-end span.
func TestRelayHopStampingEndToEnd(t *testing.T) {
	obs.Flight.Reset()
	defer obs.Flight.Reset()

	r := NewRelayOpts(t.Context(), RelayOptions{Site: 2})
	defer r.Close()
	alice := attachParticipant(t, r, "alice")
	bob := attachParticipant(t, r, "bob")
	defer alice.link.Close()
	defer bob.link.Close()

	sendReg, recvReg := obs.NewRegistry(), obs.NewRegistry()
	store := obs.NewTraceStore(8)
	sender := &Sender{
		Session: alice.sess,
		Encoder: newKeypointEncoder(false),
		Obs:     obs.NewPipelineMetrics(sendReg),
		Site:    1,
	}
	recv := &Receiver{
		Session: bob.sess,
		Decoder: &KeypointDecoder{Model: testModel, Codec: compress.LZR()},
		Obs:     obs.NewPipelineMetrics(recvReg),
		Site:    3,
		Traces:  store,
	}

	capturedAt := time.Now()
	if err := sender.SendFrameCaptured(testSeq.FrameAt(0), capturedAt); err != nil {
		t.Fatal(err)
	}
	// Alice attached first (block 0), so channels arrive un-shifted and
	// bob's receiver decodes them directly.
	data, err := recv.NextFrame()
	if err != nil {
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
		{obs.HopReceiver, 3},
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
	// The path starts at capture and ends at decode completion.
	if tr.Hops[0].RecvMicros != uint64(capturedAt.UnixMicro()) {
		t.Errorf("sender hop recv %d, want capture stamp %d",
			tr.Hops[0].RecvMicros, capturedAt.UnixMicro())
	}
	if got := tr.Hops[3].SendMicros; got != uint64(tr.DecodedAt.UnixMicro()) {
		t.Errorf("receiver hop send %d, want decode stamp %d", got, tr.DecodedAt.UnixMicro())
	}
	// Acceptance invariant: the waterfall telescopes to the e2e span (up
	// to the microsecond quantization of the wire stamps).
	e2eMs := tr.E2E().Seconds() * 1e3
	if diff := math.Abs(tr.HopSumMs() - e2eMs); diff > 0.002 {
		t.Errorf("hop-sum %.6f ms vs e2e %.6f ms (diff %.6f)", tr.HopSumMs(), e2eMs, diff)
	}

	// The completed trace is published for /debug/trace/<id>.
	stored, ok := store.Get(tr.TraceID)
	if !ok || len(stored.Hops) != 4 {
		t.Errorf("trace %d not in store (ok=%v hops=%d)", tr.TraceID, ok, len(stored.Hops))
	}
	// The e2e histogram's exemplar names this frame, and the stored trace
	// it resolves to renders as a waterfall.
	if sec, id := recv.Obs.E2EExemplar(); id != tr.TraceID || sec <= 0 {
		t.Errorf("e2e exemplar = trace %d at %.6f s, want trace %d", id, sec, tr.TraceID)
	}
	if out := obs.RenderWaterfall(stored); !strings.Contains(out, "receiver") || !strings.Contains(out, "hop-sum") {
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
