package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"testing"
	"time"

	"semholo/internal/obs"
)

// makeHops builds a deterministic n-hop path.
func makeHops(n int) []obs.Hop {
	hops := make([]obs.Hop, n)
	for i := range hops {
		hops[i] = obs.Hop{
			Kind:       obs.HopKind(1 + i%5),
			Site:       byte(i),
			RecvMicros: 1_700_000_000_000_000 + uint64(i)*1000,
			SendMicros: 1_700_000_000_000_500 + uint64(i)*1000,
		}
	}
	return hops
}

// TestHopRoundTrip exercises every legal hop count, 0 through
// obs.MaxTraceHops, through a write/read cycle.
func TestHopRoundTrip(t *testing.T) {
	for n := 0; n <= obs.MaxTraceHops; n++ {
		var buf bytes.Buffer
		in := Frame{
			Type: TypeSemantic, Channel: ChannelData,
			Flags: FlagEndOfFrame | FlagTrace | FlagHops,
			Seq:   uint32(n), Timestamp: 12345,
			CaptureTS: 100, SendTS: 200, TraceID: uint64(n) + 1,
			Hops:    makeHops(n),
			Payload: []byte("pose"),
		}
		if err := NewFrameWriter(&buf).WriteFrame(&in); err != nil {
			t.Fatalf("%d hops: write: %v", n, err)
		}
		wantLen := headerLen + traceExtLen + 1 + n*hopRecordLen + len(in.Payload) + trailerLen
		if buf.Len() != wantLen {
			t.Errorf("%d hops: wire length %d, want %d", n, buf.Len(), wantLen)
		}
		out, err := NewFrameReader(&buf).ReadFrame()
		if err != nil {
			t.Fatalf("%d hops: read: %v", n, err)
		}
		if !out.HopTraced() || len(out.Hops) != n {
			t.Fatalf("%d hops: decoded %d hops (hopTraced=%v)", n, len(out.Hops), out.HopTraced())
		}
		for i, h := range out.Hops {
			if h != in.Hops[i] {
				t.Errorf("%d hops: hop %d = %+v, want %+v", n, i, h, in.Hops[i])
			}
		}
		if out.CaptureTS != in.CaptureTS || out.TraceID != in.TraceID {
			t.Errorf("%d hops: base ext (%d,%d), want (%d,%d)",
				n, out.CaptureTS, out.TraceID, in.CaptureTS, in.TraceID)
		}
	}
}

// TestHopReaderBufferReuse pins the documented aliasing contract: a
// decoded frame's Hops alias reader storage overwritten by the next
// ReadFrame, and Clone detaches them.
func TestHopReaderBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	a := Frame{Type: TypeSemantic, Flags: FlagTrace | FlagHops, TraceID: 1,
		Hops: []obs.Hop{{Kind: obs.HopSender, Site: 11, RecvMicros: 1, SendMicros: 2}}, Payload: []byte("a")}
	b := Frame{Type: TypeSemantic, Flags: FlagTrace | FlagHops, TraceID: 2,
		Hops: []obs.Hop{{Kind: obs.HopReceiver, Site: 22, RecvMicros: 3, SendMicros: 4}}, Payload: []byte("b")}
	for _, f := range []*Frame{&a, &b} {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	first, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Clone()
	if _, err := fr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if first.Hops[0].Site != 22 {
		t.Errorf("un-cloned hops not aliased to reader storage (site %d)", first.Hops[0].Site)
	}
	if kept.Hops[0].Site != 11 || kept.Hops[0].Kind != obs.HopSender {
		t.Errorf("Clone did not detach hops: %+v", kept.Hops[0])
	}
}

// TestPerHopRecordCorruptionDetected flips one byte at every offset of
// every hop record and demands ErrBadCRC each time: the checksum covers
// the entire hop section, not just header and payload.
func TestPerHopRecordCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{
		Type: TypeSemantic, Flags: FlagTrace | FlagHops, TraceID: 9,
		Hops: makeHops(3), Payload: []byte("x"),
	}
	if err := NewFrameWriter(&buf).WriteFrame(&in); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	hopSection := headerLen + traceExtLen // count byte offset
	for rec := 0; rec < len(in.Hops); rec++ {
		for off := 0; off < hopRecordLen; off++ {
			raw := append([]byte(nil), pristine...)
			raw[hopSection+1+rec*hopRecordLen+off] ^= 0x01
			_, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame()
			if !errors.Is(err, ErrBadCRC) {
				t.Fatalf("hop %d byte %d corrupted: err = %v, want ErrBadCRC", rec, off, err)
			}
		}
	}
	// The count byte is covered too (corrupting it within legal range).
	raw := append([]byte(nil), pristine...)
	raw[hopSection] = 2 // claim 2 hops instead of 3
	if _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); err == nil {
		t.Fatal("shortened hop count decoded cleanly")
	}
}

// TestGoldenWireBytes pins the exact serialization against hex literals
// derived independently from the documented layout: untraced frames and
// legacy 24-byte traced frames must stay bit-identical to the pre-hop
// wire format forever.
func TestGoldenWireBytes(t *testing.T) {
	cases := []struct {
		name   string
		frame  Frame
		golden string
	}{
		{
			name: "untraced",
			frame: Frame{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame,
				Seq: 7, Timestamp: 0x0102030405060708, Payload: []byte("semholo")},
			golden: "53480103000100050000000701020304050607080000000773656d686f6c6f9676714c",
		},
		{
			name: "legacy-traced",
			frame: Frame{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame | FlagTrace,
				Seq: 7, Timestamp: 0x0102030405060708,
				CaptureTS: 1000, SendTS: 2000, TraceID: 42, Payload: []byte("semholo")},
			golden: "534801030001000d0000000701020304050607080000000700000000000003e800000000000007d0000000000000002a73656d686f6c6f1eab8a8b",
		},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteFrame(&tc.frame); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s wire bytes drifted:\n got %x\nwant %x", tc.name, buf.Bytes(), want)
		}
	}
}

// TestHopFlagValidation covers the one illegal flag combination and the
// hop-count bound on both the write and read paths.
func TestHopFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)

	bad := Frame{Type: TypeSemantic, Flags: FlagHops, Payload: []byte("x")}
	if err := fw.WriteFrame(&bad); !errors.Is(err, ErrBadHeader) {
		t.Errorf("FlagHops without FlagTrace: write err = %v, want ErrBadHeader", err)
	}

	over := Frame{Type: TypeSemantic, Flags: FlagTrace | FlagHops,
		Hops: makeHops(obs.MaxTraceHops + 1), Payload: []byte("x")}
	if err := fw.WriteFrame(&over); !errors.Is(err, ErrBadHeader) {
		t.Errorf("%d hops: write err = %v, want ErrBadHeader", obs.MaxTraceHops+1, err)
	}
	// Capture refuses it too, by copy as by adoption: a captured frame
	// would otherwise be forwarded and rejected by every subscriber.
	if _, err := SharedFromFrame(over); !errors.Is(err, ErrBadHeader) {
		t.Errorf("%d hops: SharedFromFrame err = %v, want ErrBadHeader", obs.MaxTraceHops+1, err)
	}
	if _, err := SharedFromWire(over, over.Payload, 0); !errors.Is(err, ErrBadHeader) {
		t.Errorf("%d hops: SharedFromWire err = %v, want ErrBadHeader", obs.MaxTraceHops+1, err)
	}

	// Reader side: craft a header claiming FlagHops without FlagTrace.
	buf.Reset()
	ok := Frame{Type: TypeSemantic, Flags: FlagTrace | FlagHops, Hops: makeHops(1), Payload: []byte("x")}
	if err := fw.WriteFrame(&ok); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[7] &^= byte(FlagTrace) // clear FlagTrace in the header's low flag byte
	if _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); !errors.Is(err, ErrBadHeader) {
		t.Errorf("reader FlagHops-without-FlagTrace err = %v, want ErrBadHeader", err)
	}

	// Reader side: a count byte above the bound is rejected before any
	// record reads.
	raw = append(raw[:0], buf.Bytes()...)
	raw[headerLen+traceExtLen] = obs.MaxTraceHops + 1
	if _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); !errors.Is(err, ErrBadHeader) {
		t.Errorf("reader oversized hop count err = %v, want ErrBadHeader", err)
	}
}

// TestTruncatedHopSection cuts the stream inside the hop extension.
func TestTruncatedHopSection(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: TypeSemantic, Flags: FlagTrace | FlagHops, Hops: makeHops(2), Payload: []byte("x")}
	if err := NewFrameWriter(&buf).WriteFrame(&in); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{
		headerLen + traceExtLen,                      // before the count byte
		headerLen + traceExtLen + 1,                  // count read, no records
		headerLen + traceExtLen + 1 + hopRecordLen/2, // mid-record
	} {
		_, err := NewFrameReader(bytes.NewReader(full[:cut])).ReadFrame()
		if err == nil {
			t.Errorf("stream cut at %d decoded cleanly", cut)
		}
	}
}

// TestAppendHopBounds covers Frame.AppendHop's cap and flag behavior.
func TestAppendHopBounds(t *testing.T) {
	var f Frame
	for i := 0; i < obs.MaxTraceHops; i++ {
		if !f.AppendHop(obs.Hop{Kind: obs.HopSender, Site: byte(i)}) {
			t.Fatalf("hop %d rejected below the bound", i)
		}
	}
	if f.AppendHop(obs.Hop{Kind: obs.HopReceiver}) {
		t.Error("hop beyond obs.MaxTraceHops accepted")
	}
	if len(f.Hops) != obs.MaxTraceHops {
		t.Errorf("path length %d", len(f.Hops))
	}
	if f.Flags&(FlagTrace|FlagHops) != FlagTrace|FlagHops {
		t.Errorf("AppendHop did not set trace flags: %04x", f.Flags)
	}
}

// TestSharedFrameEgressMatchesWriteFrame proves the fan-out path
// serializes hop-traced frames byte-identically to the scalar writer:
// a SharedFrame emission with a per-leg egress hop equals WriteFrame of
// the equivalent Frame carrying the same hop list.
func TestSharedFrameEgressMatchesWriteFrame(t *testing.T) {
	payload := []byte("broadcast payload")
	carried := makeHops(2)
	egress := obs.Hop{Kind: obs.HopRelayEgress, Site: 7, RecvMicros: 111, SendMicros: 222}

	sf, err := NewSharedFrame(TypeSemantic, 5, FlagEndOfFrame|FlagTrace|FlagHops, payload)
	if err != nil {
		t.Fatal(err)
	}
	sf.CaptureTS, sf.TraceID = 1000, 77
	for _, h := range carried {
		if !sf.AppendHop(h) {
			t.Fatal("carried hop rejected")
		}
	}
	var shared bytes.Buffer
	if err := NewFrameWriter(&shared).WriteSharedFrameLeg(sf, 9, 5000, 2000, &egress, 0); err != nil {
		t.Fatal(err)
	}

	var scalar bytes.Buffer
	eq := Frame{
		Type: TypeSemantic, Channel: 5, Flags: FlagEndOfFrame | FlagTrace | FlagHops,
		Seq: 9, Timestamp: 5000,
		CaptureTS: 1000, SendTS: 2000, TraceID: 77,
		Hops:    append(append([]obs.Hop(nil), carried...), egress),
		Payload: payload,
	}
	if err := NewFrameWriter(&scalar).WriteFrame(&eq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shared.Bytes(), scalar.Bytes()) {
		t.Errorf("shared egress bytes differ from scalar writer:\n got %x\nwant %x",
			shared.Bytes(), scalar.Bytes())
	}
	if got, want := shared.Len(), sf.legWireLen(&egress); got != want {
		t.Errorf("legWireLen %d, wrote %d bytes", want, got)
	}

	// Zero egress SendMicros is stamped with the leg's sendTS.
	var stamped bytes.Buffer
	unstamped := egress
	unstamped.SendMicros = 0
	if err := NewFrameWriter(&stamped).WriteSharedFrameLeg(sf, 9, 5000, 2000, &unstamped, 0); err != nil {
		t.Fatal(err)
	}
	out, err := NewFrameReader(&stamped).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Hops[len(out.Hops)-1].SendMicros; got != 2000 {
		t.Errorf("egress hop SendMicros = %d, want stamped 2000", got)
	}
}

// TestSharedFrameAppendHopReservesEgressSlot: the carried path caps at
// MaxTraceHops-1 so every egress leg's final hop always fits.
func TestSharedFrameAppendHopReservesEgressSlot(t *testing.T) {
	sf, err := NewSharedFrame(TypeSemantic, 1, FlagTrace|FlagHops, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sf.AppendHop(obs.Hop{Kind: obs.HopSender, Site: byte(n)}) {
		n++
		if n > obs.MaxTraceHops {
			t.Fatal("AppendHop never refused")
		}
	}
	if n != obs.MaxTraceHops-1 {
		t.Errorf("carried path cap %d, want %d (one slot reserved for egress)", n, obs.MaxTraceHops-1)
	}
	var buf bytes.Buffer
	egress := obs.Hop{Kind: obs.HopRelayEgress, Site: 99, RecvMicros: 1}
	if err := NewFrameWriter(&buf).WriteSharedFrameLeg(sf, 1, 2, 3, &egress, 0); err != nil {
		t.Fatalf("full carried path + egress hop must still serialize: %v", err)
	}
	out, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Hops) != obs.MaxTraceHops {
		t.Errorf("decoded %d hops, want %d", len(out.Hops), obs.MaxTraceHops)
	}
	if last := out.Hops[len(out.Hops)-1]; last.Kind != obs.HopRelayEgress || last.Site != 99 {
		t.Errorf("final hop %+v, want the egress leg", last)
	}
}

// TestSharedFromFrameFullPathEgressDrop: a relayed frame can arrive
// already carrying a wire-valid full path (obs.MaxTraceHops hops), which
// SharedFromFrame keeps verbatim — only AppendHop reserves the egress
// slot. The per-leg egress hop must then be dropped, mirroring
// AppendHop's drop-don't-fail policy (regression: the egress write used
// to emit a 9-hop frame every subscriber rejects as ErrBadHeader,
// tearing down the whole fan-out on one deep-cascade frame).
func TestSharedFromFrameFullPathEgressDrop(t *testing.T) {
	in := Frame{
		Type: TypeSemantic, Channel: ChannelData, Flags: FlagTrace | FlagHops,
		CaptureTS: 100, SendTS: 200, TraceID: 0xfeedbeefcafe,
		Hops:    makeHops(obs.MaxTraceHops),
		Payload: []byte("deep-cascade"),
	}
	sf, err := SharedFromFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	egress := obs.Hop{Kind: obs.HopRelayEgress, Site: 7, RecvMicros: 1}
	if err := NewFrameWriter(&buf).WriteSharedFrameLeg(sf, 1, 2, 3, &egress, 0); err != nil {
		t.Fatalf("full carried path + egress leg: %v", err)
	}
	if got, want := buf.Len(), sf.legWireLen(&egress); got != want {
		t.Errorf("legWireLen %d, wrote %d bytes", want, got)
	}
	out, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatalf("subscriber must decode a full-path egress frame: %v", err)
	}
	if len(out.Hops) != obs.MaxTraceHops {
		t.Fatalf("decoded %d hops, want %d (carried path intact, egress dropped)",
			len(out.Hops), obs.MaxTraceHops)
	}
	for i, h := range out.Hops {
		if h != in.Hops[i] {
			t.Errorf("hop %d = %+v, want carried hop %+v", i, h, in.Hops[i])
		}
	}
	// The truncation is observable: a hop-dropped flight event under the
	// frame's trace ID.
	dropped := false
	for _, ev := range obs.Flight.EventsFor(in.TraceID) {
		if ev.Kind == obs.EvHopDropped {
			dropped = true
		}
	}
	if !dropped {
		t.Error("no EvHopDropped flight event recorded for the dropped egress hop")
	}
}

// TestSessionSendTracedHops runs the hop extension through a Session
// pair: zero SendMicros hops must be stamped at write time and the path
// delivered intact.
func TestSessionSendTracedHops(t *testing.T) {
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

	capture := uint64(time.Now().Add(-time.Second).UnixMicro())
	hops := []obs.Hop{{Kind: obs.HopSender, Site: 3, RecvMicros: capture}} // SendMicros 0: stamp at write
	go func() {
		_, _ = sa.SendBatch([]Frame{{
			Type: TypeSemantic, Channel: ChannelData, Flags: FlagEndOfFrame | FlagTrace | FlagHops,
			CaptureTS: capture, TraceID: 88, Hops: hops, Payload: []byte("payload"),
		}})
	}()
	f, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !f.HopTraced() || len(f.Hops) != 1 {
		t.Fatalf("delivered %d hops (hopTraced=%v)", len(f.Hops), f.HopTraced())
	}
	h := f.Hops[0]
	if h.Kind != obs.HopSender || h.Site != 3 || h.RecvMicros != capture {
		t.Errorf("hop = %+v", h)
	}
	if h.SendMicros == 0 || h.SendMicros != f.SendTS {
		t.Errorf("hop SendMicros %d, want the frame send stamp %d (stamped at write time)",
			h.SendMicros, f.SendTS)
	}
}

// FuzzHopTraceRoundTrip fuzzes the hop section through a write/read
// cycle: any in-bounds hop configuration must round-trip exactly, and
// no input may produce a mismatched decode.
func FuzzHopTraceRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), uint64(0), uint64(0), []byte{})
	f.Add(uint8(1), uint8(1), uint8(7), uint64(1000), uint64(2000), []byte("pose"))
	f.Add(uint8(8), uint8(5), uint8(255), uint64(1<<62), uint64(1), []byte("full path"))
	f.Add(uint8(3), uint8(200), uint8(9), uint64(42), uint64(43), []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, count, kind, site uint8, recv, send uint64, payload []byte) {
		n := int(count) % (obs.MaxTraceHops + 1)
		hops := make([]obs.Hop, n)
		for i := range hops {
			hops[i] = obs.Hop{
				Kind:       obs.HopKind(kind + uint8(i)),
				Site:       site + uint8(i),
				RecvMicros: recv + uint64(i),
				SendMicros: send + uint64(i),
			}
		}
		in := Frame{
			Type: TypeSemantic, Channel: ChannelData,
			Flags:     FlagTrace | FlagHops,
			CaptureTS: recv, SendTS: send, TraceID: recv ^ send,
			Hops: hops, Payload: payload,
		}
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteFrame(&in); err != nil {
			t.Fatalf("write: %v", err)
		}
		out, err := NewFrameReader(&buf).ReadFrame()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if len(out.Hops) != n {
			t.Fatalf("decoded %d hops, want %d", len(out.Hops), n)
		}
		for i := range hops {
			if out.Hops[i] != hops[i] {
				t.Fatalf("hop %d = %+v, want %+v", i, out.Hops[i], hops[i])
			}
		}
		if !bytes.Equal(out.Payload, payload) {
			t.Fatalf("payload mismatch")
		}
	})
}
