package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

func TestTracedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	in := Frame{
		Type: TypeSemantic, Channel: ChannelData,
		Flags:     FlagEndOfFrame | FlagTrace,
		CaptureTS: 1_700_000_000_000_001, SendTS: 1_700_000_000_020_002, TraceID: 42,
		Payload: []byte("pose"),
	}
	if err := fw.WriteFrame(&in); err != nil {
		t.Fatal(err)
	}
	out, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Traced() {
		t.Fatal("round-tripped frame lost FlagTrace")
	}
	if out.CaptureTS != in.CaptureTS || out.SendTS != in.SendTS || out.TraceID != in.TraceID {
		t.Errorf("trace ext = (%d,%d,%d), want (%d,%d,%d)",
			out.CaptureTS, out.SendTS, out.TraceID, in.CaptureTS, in.SendTS, in.TraceID)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("payload = %q", out.Payload)
	}
}

// TestUntracedFrameWireFormatUnchanged pins backward compatibility: a
// frame without FlagTrace must serialize to exactly the pre-trace layout
// (no extension bytes) and still decode.
func TestUntracedFrameWireFormatUnchanged(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	in := Frame{Type: TypeSemantic, Channel: ChannelData, Flags: FlagEndOfFrame, Payload: []byte("abc")}
	if err := fw.WriteFrame(&in); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), headerLen+len(in.Payload)+trailerLen; got != want {
		t.Fatalf("untraced frame is %d bytes on the wire, want %d (no trace ext)", got, want)
	}
	out, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if out.Traced() || out.CaptureTS != 0 || out.SendTS != 0 || out.TraceID != 0 {
		t.Errorf("untraced frame decoded with trace fields: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("payload = %q", out.Payload)
	}
}

// TestMixedTraceStream interleaves traced and untraced frames through one
// reader — the shape of a session where only media frames carry traces.
func TestMixedTraceStream(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	frames := []Frame{
		{Type: TypeControl, Channel: ChannelControl, Payload: []byte("ctl")},
		{Type: TypeSemantic, Channel: ChannelData, Flags: FlagTrace, CaptureTS: 10, SendTS: 20, TraceID: 1, Payload: []byte("a")},
		{Type: TypeSemantic, Channel: ChannelData, Payload: []byte("b")},
		{Type: TypeSemantic, Channel: ChannelData, Flags: FlagTrace | FlagEndOfFrame, CaptureTS: 30, SendTS: 40, TraceID: 2, Payload: []byte("c")},
	}
	for i := range frames {
		if err := fw.WriteFrame(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range frames {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Traced() != want.Traced() || got.CaptureTS != want.CaptureTS ||
			got.SendTS != want.SendTS || got.TraceID != want.TraceID {
			t.Errorf("frame %d trace fields = %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d payload = %q, want %q", i, got.Payload, want.Payload)
		}
	}
}

// TestCorruptTraceExtensionFailsCRC verifies the checksum covers the
// trace extension, not just header and payload.
func TestCorruptTraceExtensionFailsCRC(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	in := Frame{Type: TypeSemantic, Channel: ChannelData, Flags: FlagTrace, CaptureTS: 99, TraceID: 1, Payload: []byte("x")}
	if err := fw.WriteFrame(&in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[headerLen+3] ^= 0xFF // flip a byte inside the trace extension
	_, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame()
	if !errors.Is(err, ErrBadCRC) {
		t.Fatalf("corrupt ext error = %v, want ErrBadCRC", err)
	}
}

// TestSessionSendTraced runs the trace extension through a full Session
// pair: a traced SendBatch must stamp the send time at write time and
// deliver capture timestamp and trace ID intact.
func TestSessionSendTraced(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()

	type accepted struct {
		s   *Session
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		s, _, err := Accept(cb, Hello{Peer: "b"})
		acceptCh <- accepted{s, err}
	}()
	sa, _, err := Dial(ca, Hello{Peer: "a"})
	if err != nil {
		t.Fatal(err)
	}
	acc := <-acceptCh
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	sb := acc.s

	before := uint64(time.Now().Add(-time.Second).UnixMicro())
	go func() {
		_, _ = sa.SendBatch([]Frame{{
			Type: TypeSemantic, Channel: ChannelData, Flags: FlagEndOfFrame | FlagTrace,
			CaptureTS: before, TraceID: 77, Payload: []byte("payload"),
		}})
	}()
	f, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Traced() {
		t.Fatal("received frame is not traced")
	}
	if f.CaptureTS != before || f.TraceID != 77 {
		t.Errorf("capture/trace = %d/%d, want %d/77", f.CaptureTS, f.TraceID, before)
	}
	if f.SendTS < before {
		t.Errorf("send stamp %d predates capture %d — not stamped at write time", f.SendTS, before)
	}
	// Wire accounting must include the extension bytes.
	if got := sa.Stats().BytesSent; got == 0 {
		t.Error("BytesSent not accounted")
	}
}
