package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"semholo/internal/netsim"
	"semholo/internal/obs"
)

// The batch suite pins the one rule a batch send has: it is fewer
// writes, never different bytes. Everything is checked against
// FrameWriter's single-frame writes (WriteFrame, WriteSharedFrameLeg),
// which a batch of one still takes.

// recConn is a net.Conn that records every Write it is handed — how many
// and what bytes — and never delivers anything to Read. A Session built
// straight on it (no handshake) shows exactly what a peer's socket sees.
type recConn struct {
	mu     sync.Mutex
	writes [][]byte
	closed chan struct{}
	once   sync.Once
}

func newRecConn() *recConn { return &recConn{closed: make(chan struct{})} }

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

// take returns the writes recorded since the last take.
func (c *recConn) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

func (c *recConn) Read([]byte) (int, error)         { <-c.closed; return 0, io.EOF }
func (c *recConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *recConn) LocalAddr() net.Addr              { return nil }
func (c *recConn) RemoteAddr() net.Addr             { return nil }
func (c *recConn) SetDeadline(time.Time) error      { return nil }
func (c *recConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

func writeSizes(writes [][]byte) []int {
	sizes := make([]int, len(writes))
	for i, w := range writes {
		sizes[i] = len(w)
	}
	return sizes
}

// ladderRungs is the wire shape of the three-rung semantic ladder: 1, 2
// and 3 channels — six wire frames per media frame.
var ladderRungs = [][]uint16{{1}, {2, 1}, {2, 1, 3}}

// ladderFrames builds one media frame's wire frames as a traced sender
// ships them: tier-stamped, hop-traced, every frame a keyframe, each
// rung closed by EndOfFrame, all sharing one sender hop awaiting its
// send stamp.
func ladderFrames(captureTS, traceID uint64, payloadLen int) []Frame {
	hop := []obs.Hop{{Kind: obs.HopSender, Site: 9, RecvMicros: captureTS}}
	var frames []Frame
	for tier, rung := range ladderRungs {
		for i, ch := range rung {
			flags := FlagKeyframe | FlagTier | FlagTrace | FlagHops
			if i == len(rung)-1 {
				flags |= FlagEndOfFrame
			}
			frames = append(frames, Frame{
				Type: TypeSemantic, Channel: ch, Flags: flags,
				Tier: uint8(tier), TierCount: uint8(len(ladderRungs)),
				CaptureTS: captureTS, TraceID: traceID, Hops: hop,
				Payload: bytes.Repeat([]byte{byte(traceID), byte(tier), byte(i)}, payloadLen),
			})
		}
	}
	return frames
}

// sharedLadder captures ladderFrames as a relay ingress holds them: one
// SharedFrame per wire frame with the relay-ingress hop appended, as a
// full set (every rung, ladder order) and as its top rung alone.
func sharedLadder(t testing.TB, payloadLen int) (set, topRung []*SharedFrame) {
	t.Helper()
	for _, f := range ladderFrames(1000, 7, payloadLen) {
		f.Hops = []obs.Hop{{Kind: obs.HopSender, Site: 9, RecvMicros: 1000, SendMicros: 1100}}
		sf, err := SharedFromFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if !sf.AppendHop(obs.Hop{Kind: obs.HopRelayIngress, Site: 1, RecvMicros: 1200, SendMicros: 1210}) {
			t.Fatal("ingress hop did not fit")
		}
		set = append(set, sf)
		if int(sf.Tier) == len(ladderRungs)-1 {
			topRung = append(topRung, sf)
		}
	}
	return set, topRung
}

// readAll decodes a byte stream into owned frames.
func readAll(t testing.TB, wire []byte) []Frame {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(wire))
	var frames []Frame
	for {
		f, err := fr.ReadFrame()
		if errors.Is(err, io.EOF) {
			return frames
		}
		if err != nil {
			t.Fatalf("frame %d of the stream: %v", len(frames), err)
		}
		frames = append(frames, f.Clone())
	}
}

// TestBatchWireBytesIdentical: buffering frames and flushing once emits
// exactly the concatenation of the per-frame writes — for plain, traced,
// hop-traced, tiered and tier-switch frames, and for shared frames with
// a per-leg egress hop and the switch marker on the first frame — in one
// Write, and the stream round-trips through a FrameReader.
func TestBatchWireBytesIdentical(t *testing.T) {
	plain := []Frame{
		{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe, Seq: 3, Timestamp: 11, Payload: []byte("plain")},
		{Type: TypeControl, Channel: ChannelControl, Seq: 4, Timestamp: 12, Payload: []byte(`{"kind":"gaze"}`)},
		{Type: TypeSemantic, Channel: 2, Seq: 5, Timestamp: 13},
		{Type: TypeSemantic, Channel: 1, Flags: FlagTrace | FlagEndOfFrame, Seq: 6, Timestamp: 14,
			CaptureTS: 100, SendTS: 200, TraceID: 42, Payload: []byte("traced")},
		{Type: TypeSemantic, Channel: 1, Flags: FlagTrace | FlagHops, Seq: 7, Timestamp: 15,
			CaptureTS: 100, SendTS: 200, TraceID: 43, Hops: makeHops(3), Payload: bytes.Repeat([]byte("hop"), 500)},
		{Type: TypeSemantic, Channel: 1, Flags: FlagTier | FlagTierSwitch | FlagKeyframe, Seq: 8, Timestamp: 16,
			Tier: 1, TierCount: 3, Payload: []byte("switch")},
	}
	ladder := ladderFrames(1000, 7, 400)
	for i := range ladder {
		ladder[i].Seq, ladder[i].Timestamp, ladder[i].SendTS = uint32(i), 77, 2000
	}

	for name, frames := range map[string][]Frame{"mixed": plain, "ladder": ladder} {
		var perFrame bytes.Buffer
		fw := NewFrameWriter(&perFrame)
		for i := range frames {
			if err := fw.WriteFrame(&frames[i]); err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
		}
		conn := newRecConn()
		bw := NewFrameWriter(conn)
		for i := range frames {
			if err := bw.bufferFrame(&frames[i]); err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
		}
		if n := len(conn.take()); n != 0 {
			t.Fatalf("%s: %d writes before flush", name, n)
		}
		if err := bw.flush(); err != nil {
			t.Fatal(err)
		}
		writes := conn.take()
		if len(writes) != 1 {
			t.Fatalf("%s: batch left in %d writes %v, want 1", name, len(writes), writeSizes(writes))
		}
		if !bytes.Equal(writes[0], perFrame.Bytes()) {
			t.Fatalf("%s: batch bytes differ from the per-frame concatenation", name)
		}
		got := readAll(t, writes[0])
		if len(got) != len(frames) {
			t.Fatalf("%s: %d frames decoded, want %d", name, len(got), len(frames))
		}
		for i, f := range got {
			w := frames[i]
			if f.Type != w.Type || f.Channel != w.Channel || f.Flags != w.Flags || f.Seq != w.Seq ||
				f.TraceID != w.TraceID || f.Tier != w.Tier || len(f.Hops) != len(w.Hops) || !bytes.Equal(f.Payload, w.Payload) {
				t.Errorf("%s frame %d decoded as %+v", name, i, f)
			}
		}
	}

	// Shared frames, as a relay leg emits a set: egress hop on every
	// frame, the switch marker on the first only.
	set, _ := sharedLadder(t, 400)
	egress := obs.Hop{Kind: obs.HopRelayEgress, Site: 1, RecvMicros: 1300}
	var perFrame bytes.Buffer
	fw := NewFrameWriter(&perFrame)
	conn := newRecConn()
	bw := NewFrameWriter(conn)
	for i, sf := range set {
		var orFlags uint16
		if i == 0 {
			orFlags = FlagTierSwitch
		}
		if err := fw.WriteSharedFrameLeg(sf, uint32(i), 88, 1400, &egress, orFlags); err != nil {
			t.Fatal(err)
		}
		if err := bw.bufferSharedFrameLeg(sf, uint32(i), 88, 1400, &egress, orFlags); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.flush(); err != nil {
		t.Fatal(err)
	}
	writes := conn.take()
	if len(writes) != 1 || !bytes.Equal(writes[0], perFrame.Bytes()) {
		t.Fatalf("shared batch: %d writes %v, bytes equal %v", len(writes), writeSizes(writes),
			len(writes) == 1 && bytes.Equal(writes[0], perFrame.Bytes()))
	}
	for i, f := range readAll(t, writes[0]) {
		if sw := f.Flags&FlagTierSwitch != 0; sw != (i == 0) {
			t.Errorf("shared frame %d: tier-switch marker %v", i, sw)
		}
		if last := f.Hops[len(f.Hops)-1]; len(f.Hops) != 3 || last.Kind != obs.HopRelayEgress || last.SendMicros != 1400 {
			t.Errorf("shared frame %d hops %+v, want the egress hop stamped 1400 last of 3", i, f.Hops)
		}
	}
}

// TestBatchGoldenWireBytes: a batch of the frames the golden suites pin
// one by one is the concatenation of their golden bytes.
func TestBatchGoldenWireBytes(t *testing.T) {
	frames := []Frame{
		{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame,
			Seq: 7, Timestamp: 0x0102030405060708, Payload: []byte("semholo")},
		{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame | FlagTrace,
			Seq: 7, Timestamp: 0x0102030405060708,
			CaptureTS: 1000, SendTS: 2000, TraceID: 42, Payload: []byte("semholo")},
		{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame | FlagTier,
			Seq: 7, Timestamp: 0x0102030405060708, Tier: 1, TierCount: 3, Payload: []byte("semholo")},
		{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame | FlagTier | FlagTierSwitch,
			Seq: 7, Timestamp: 0x0102030405060708, Tier: 1, TierCount: 3, Payload: []byte("semholo")},
	}
	want, err := hex.DecodeString(
		"53480103000100050000000701020304050607080000000773656d686f6c6f9676714c" +
			"534801030001000d0000000701020304050607080000000700000000000003e800000000000007d0000000000000002a73656d686f6c6f1eab8a8b" +
			"534801030001002500000007010203040506070800000007010373656d686f6c6f178b5fec" +
			"534801030001006500000007010203040506070800000007010373656d686f6c6fd35138cf")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for i := range frames {
		if err := fw.bufferFrame(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("batch wire bytes drifted:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// TestSendBatchWriteCounts: one media frame is one connection write —
// a 6-frame ladder from the sender, a 6-frame set down a trunk, a
// 3-frame rung to a subscriber — while a batch of one is today's
// single-frame path write for write (one write for a serialized frame;
// header, payload, trailer for a shared one). Whatever the write count,
// the bytes are what re-serializing the received frames one at a time
// produces.
func TestSendBatchWriteCounts(t *testing.T) {
	set, topRung := sharedLadder(t, 300)
	egress := func() *obs.Hop { return &obs.Hop{Kind: obs.HopRelayEgress, Site: 1, RecvMicros: 1300} }
	cases := []struct {
		name       string
		send       func(*Session) (int, error)
		wantWrites int
		wantFrames int
	}{
		{"sender-ladder", func(s *Session) (int, error) { return s.SendBatch(ladderFrames(obs.NowMicros(), 1, 300)) }, 1, 6},
		{"trunk-set", func(s *Session) (int, error) { return s.SendSharedBatch(set, SharedSendOpts{Egress: egress()}) }, 1, 6},
		{"subscriber-rung", func(s *Session) (int, error) {
			return s.SendSharedBatch(topRung, SharedSendOpts{Egress: egress(), TierSwitch: true})
		}, 1, 3},
		{"one-frame", func(s *Session) (int, error) { return s.SendBatch(ladderFrames(obs.NowMicros(), 1, 300)[:1]) }, 1, 1},
		{"one-shared-frame", func(s *Session) (int, error) {
			return s.SendSharedBatch(set[:1], SharedSendOpts{Egress: egress(), TierSwitch: true})
		}, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := newRecConn()
			s := newSession(conn)
			n, err := tc.send(s)
			if err != nil {
				t.Fatal(err)
			}
			writes := conn.take()
			if len(writes) != tc.wantWrites {
				t.Fatalf("%d writes %v, want %d", len(writes), writeSizes(writes), tc.wantWrites)
			}
			wire := bytes.Join(writes, nil)
			if n != len(wire) {
				t.Errorf("reported %d bytes written, the conn saw %d", n, len(wire))
			}
			frames := readAll(t, wire)
			if len(frames) != tc.wantFrames {
				t.Fatalf("%d frames on the wire, want %d", len(frames), tc.wantFrames)
			}
			var again bytes.Buffer
			fw := NewFrameWriter(&again)
			for i := range frames {
				if err := fw.WriteFrame(&frames[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(wire, again.Bytes()) {
				t.Error("wire bytes differ from the frames written one at a time")
			}
			if st := s.Stats(); st.BytesSent != int64(len(wire)) || st.FramesSent != int64(tc.wantFrames) {
				t.Errorf("counters %d bytes / %d frames, want %d / %d", st.BytesSent, st.FramesSent, len(wire), tc.wantFrames)
			}
		})
	}

	// The batch-of-one pattern is the by-reference write, not merely
	// three writes: WriteSharedFrameLeg on a fresh writer writes the same
	// segments.
	a, b := newRecConn(), newRecConn()
	if _, err := newSession(a).SendSharedBatch(set[:1], SharedSendOpts{Egress: egress()}); err != nil {
		t.Fatal(err)
	}
	if err := NewFrameWriter(b).WriteSharedFrameLeg(set[0], 0, 0, 0, egress(), 0); err != nil {
		t.Fatal(err)
	}
	if got, want := writeSizes(a.take()), writeSizes(b.take()); !slices.Equal(got, want) {
		t.Errorf("batch of one wrote segments %v, WriteSharedFrameLeg %v", got, want)
	}
}

// TestSendBatchStampsOnce: every frame of a batch carries the same
// SendTS, taken after every hop's RecvMicros, and a hop that awaited its
// send stamp carries that SendTS too — the sender's dwell is capture →
// the batch's single write, for every rung. Sequence numbers still
// advance per channel, frame by frame, across batches.
func TestSendBatchStampsOnce(t *testing.T) {
	conn := newRecConn()
	s := newSession(conn)
	for batch := uint32(0); batch < 2; batch++ {
		capture := obs.NowMicros()
		if _, err := s.SendBatch(ladderFrames(capture, uint64(batch+1), 50)); err != nil {
			t.Fatal(err)
		}
		frames := readAll(t, bytes.Join(conn.take(), nil))
		seen := map[uint16]uint32{}
		for i, f := range frames {
			if f.SendTS != frames[0].SendTS || f.Timestamp != frames[0].Timestamp {
				t.Errorf("frame %d stamped %d/%d, frame 0 %d/%d", i, f.SendTS, f.Timestamp, frames[0].SendTS, frames[0].Timestamp)
			}
			for _, h := range f.Hops {
				if h.RecvMicros > f.SendTS || h.SendMicros != f.SendTS {
					t.Errorf("frame %d hop %+v against SendTS %d", i, h, f.SendTS)
				}
			}
			// ladderRungs uses channel 1 three times, 2 twice, 3 once.
			per := map[uint16]uint32{1: 3, 2: 2, 3: 1}[f.Channel]
			if want := batch*per + seen[f.Channel]; f.Seq != want {
				t.Errorf("batch %d frame %d channel %d seq %d, want %d", batch, i, f.Channel, f.Seq, want)
			}
			seen[f.Channel]++
		}
	}

	// Shared frames: one SendTS, and the per-leg egress hop stamped with it.
	set, _ := sharedLadder(t, 50)
	if _, err := s.SendSharedBatch(set, SharedSendOpts{Egress: &obs.Hop{Kind: obs.HopRelayEgress, RecvMicros: 1300}}); err != nil {
		t.Fatal(err)
	}
	frames := readAll(t, bytes.Join(conn.take(), nil))
	for i, f := range frames {
		last := f.Hops[len(f.Hops)-1]
		if f.SendTS == 0 || f.SendTS != frames[0].SendTS || last.Kind != obs.HopRelayEgress || last.SendMicros != f.SendTS {
			t.Errorf("shared frame %d SendTS %d (frame 0 %d), egress hop %+v", i, f.SendTS, frames[0].SendTS, last)
		}
	}
}

// TestSendBatchCountersPerWireFrame: batching changes how many writes a
// media frame takes, not what the session counts — bytes and frames sent
// total exactly what frame-by-frame sending totals, and the batch
// reports the bytes the leg wrote, egress hops included (what a leg's
// bandwidth estimator must be fed, not SharedFrame.WireLen).
func TestSendBatchCountersPerWireFrame(t *testing.T) {
	set, _ := sharedLadder(t, 200)
	opts := func() SharedSendOpts {
		return SharedSendOpts{Egress: &obs.Hop{Kind: obs.HopRelayEgress, Site: 1, RecvMicros: 1300}}
	}
	batched, single := newSession(newRecConn()), newSession(newRecConn())
	n, err := batched.SendSharedBatch(set, opts())
	if err != nil {
		t.Fatal(err)
	}
	withoutEgress := 0
	for _, sf := range set {
		if _, err := single.SendSharedBatch([]*SharedFrame{sf}, opts()); err != nil {
			t.Fatal(err)
		}
		withoutEgress += sf.WireLen()
	}
	b, s := batched.Stats(), single.Stats()
	if b.BytesSent != s.BytesSent || b.FramesSent != s.FramesSent || b.FramesSent != int64(len(set)) {
		t.Errorf("batched %d B / %d frames, frame-by-frame %d B / %d frames", b.BytesSent, b.FramesSent, s.BytesSent, s.FramesSent)
	}
	if int64(n) != b.BytesSent || n != withoutEgress+len(set)*hopRecordLen {
		t.Errorf("batch reported %d bytes; counters %d, WireLen sum %d + %d egress hops", n, b.BytesSent, withoutEgress, len(set))
	}

	// A carried path that is already full drops the egress hop at write
	// time; the reported size must drop it too.
	full, err := SharedFromFrame(Frame{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagTrace | FlagHops,
		Hops: makeHops(obs.MaxTraceHops), Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	conn := newRecConn()
	n, err = newSession(conn).SendSharedBatch([]*SharedFrame{full, full}, opts())
	if err != nil {
		t.Fatal(err)
	}
	if wrote := len(bytes.Join(conn.take(), nil)); n != wrote || n != 2*full.WireLen() {
		t.Errorf("full-path batch reported %d bytes, wrote %d, want %d", n, wrote, 2*full.WireLen())
	}

	// Same for serialized frames, against batches of one.
	batched, single = newSession(newRecConn()), newSession(newRecConn())
	if _, err := batched.SendBatch(ladderFrames(1, 1, 200)); err != nil {
		t.Fatal(err)
	}
	for i, frames := 0, ladderFrames(1, 1, 200); i < len(frames); i++ {
		if _, err := single.SendBatch(frames[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if b, s := batched.Stats(), single.Stats(); b.FramesSent != s.FramesSent || b.BytesSent != s.BytesSent {
		t.Errorf("batched %d B / %d frames, frame-by-frame %d B / %d frames", b.BytesSent, b.FramesSent, s.BytesSent, s.FramesSent)
	}
}

// TestSendBatchNeverSplitByPong: the Recv goroutine answers pings on
// the same write lock a batch holds from its first frame to its flush,
// so a pong can land between two batches but never inside one. Run
// under -race: one goroutine batches while the session's Recv goroutine
// answers a stream of pings, and the peer checks every batch arrives
// contiguous.
func TestSendBatchNeverSplitByPong(t *testing.T) {
	const batches, pings = 200, 200
	peer, conn := net.Pipe()
	s := newSession(conn)
	defer s.Close()
	defer peer.Close()

	go func() { // the session's single Recv owner: answers pings, surfaces nothing
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
		}
	}()
	go func() { // the peer pinging
		fw := NewFrameWriter(peer)
		for i := 0; i < pings; i++ {
			if fw.WriteFrame(&Frame{Type: TypePing, Channel: ChannelControl, Payload: []byte{0, 0, 0, byte(i)}}) != nil {
				return
			}
		}
	}()
	go func() { // the batching goroutine: a media frame, then one frame on its own
		set, _ := sharedLadder(t, 64)
		for i := 0; i < batches; i++ {
			var err error
			if i%2 == 0 {
				_, err = s.SendBatch(ladderFrames(1, uint64(i+1), 64))
			} else {
				_, err = s.SendSharedBatch(set, SharedSendOpts{})
			}
			if err != nil {
				return
			}
		}
	}()

	fr := NewFrameReader(peer)
	perBatch := len(ladderFrames(0, 0, 0))
	inBatch, gotBatches, gotPongs := 0, 0, 0
	for gotBatches < batches || gotPongs < pings {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("after %d batches and %d pongs: %v", gotBatches, gotPongs, err)
		}
		switch f.Type {
		case TypePong:
			if inBatch != 0 {
				t.Fatalf("pong after %d of %d frames of batch %d", inBatch, perBatch, gotBatches)
			}
			gotPongs++
		case TypeSemantic:
			if inBatch++; inBatch == perBatch {
				inBatch = 0
				gotBatches++
			}
		}
	}
}

// TestBatchFlushesAt64KiB: the batch buffer is bounded by a constant. A
// batch larger than 64 KiB leaves in several writes, each a whole number
// of wire frames and none above the bound; a single shared frame above
// the bound is not copied at all — it goes down the scatter-gather path,
// in order, after the frames before it — and the session's buffer never
// grows past the bound for it.
func TestBatchFlushesAt64KiB(t *testing.T) {
	conn := newRecConn()
	s := newSession(conn)
	var frames []Frame
	for i := 0; i < 5; i++ {
		frames = append(frames, Frame{Type: TypeSemantic, Channel: 1, Payload: bytes.Repeat([]byte{byte(i)}, 20<<10)})
	}
	if _, err := s.SendBatch(frames); err != nil {
		t.Fatal(err)
	}
	writes := conn.take()
	if got, want := writeSizes(writes), []int{3 * (20<<10 + headerLen + trailerLen), 2 * (20<<10 + headerLen + trailerLen)}; !slices.Equal(got, want) {
		t.Fatalf("5 × 20 KiB left as writes %v, want %v", got, want)
	}
	for i, f := range readAll(t, bytes.Join(writes, nil)) {
		if f.Seq != uint32(i) || f.Payload[0] != byte(i) {
			t.Errorf("frame %d out of order: seq %d payload %d", i, f.Seq, f.Payload[0])
		}
	}

	small, err := NewSharedFrame(TypeSemantic, 2, FlagKeyframe, bytes.Repeat([]byte("s"), 100))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewSharedFrame(TypeSemantic, 2, FlagKeyframe, bytes.Repeat([]byte("B"), 70<<10))
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.SendSharedBatch([]*SharedFrame{small, big, small}, SharedSendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	writes = conn.take()
	// small flushed alone; big as header, payload, trailer; small again.
	if got, want := writeSizes(writes), []int{small.WireLen(), headerLen, 70 << 10, trailerLen, small.WireLen()}; !slices.Equal(got, want) {
		t.Fatalf("oversize shared frame left as writes %v, want %v", got, want)
	}
	wire := bytes.Join(writes, nil)
	if got := readAll(t, wire); len(got) != 3 || got[1].Seq != 1 || len(got[1].Payload) != 70<<10 || n != len(wire) {
		t.Errorf("decoded %d frames from %d bytes (reported %d)", len(got), len(wire), n)
	}
	if c := cap(s.fw.buf); c > maxBatchBytes {
		t.Errorf("writer buffer grew to %d bytes", c)
	}
}

// TestSendBatchValidatesWhole: a batch holding one frame no reader would
// accept fails before anything is stamped or written — no bytes on the
// wire, no sequence number consumed.
func TestSendBatchValidatesWhole(t *testing.T) {
	conn := newRecConn()
	s := newSession(conn)
	frames := ladderFrames(1, 1, 10)
	frames[4].TierCount = MaxTiers + 1
	if _, err := s.SendBatch(frames); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("bad tier count in a batch: err = %v", err)
	}
	untiered, err := NewSharedFrame(TypeSemantic, 1, FlagKeyframe, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// The switch marker rides on the first frame only: an untiered first
	// frame cannot carry it, an untiered later frame is fine.
	set, _ := sharedLadder(t, 10)
	if _, err := s.SendSharedBatch([]*SharedFrame{untiered, set[0]}, SharedSendOpts{TierSwitch: true}); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("tier switch on an untiered first frame: err = %v", err)
	}
	if w := conn.take(); len(w) != 0 {
		t.Fatalf("rejected batches wrote %v", writeSizes(w))
	}
	if _, err := s.SendSharedBatch([]*SharedFrame{set[0], untiered}, SharedSendOpts{TierSwitch: true}); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, bytes.Join(conn.take(), nil)); len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Errorf("first accepted batch decoded as %+v; rejected ones must not have consumed sequence numbers", got)
	}
}

// TestTrunkLegAllocsBatchSend pins the batch paths at zero allocations
// per media frame in steady state (alongside the trunk/subscriber parity
// of TestTrunkLegAllocsMatchSubscriberLeg, on the same non-race make
// line): the sender's ladder, the trunk's set and a subscriber's rung
// all serialize into the writer's one buffer.
func TestTrunkLegAllocsBatchSend(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	s := newSession(newDiscardConn())
	frames := ladderFrames(1, 1, 1500)
	set, topRung := sharedLadder(t, 1500)
	egress := obs.Hop{Kind: obs.HopRelayEgress, Site: 1, RecvMicros: 1300}
	for name, send := range map[string]func() (int, error){
		"sender-ladder": func() (int, error) {
			frames[0].Hops[0].SendMicros = 0 // the shared sender hop awaits its stamp again
			return s.SendBatch(frames)
		},
		"trunk-set":       func() (int, error) { return s.SendSharedBatch(set, SharedSendOpts{Egress: &egress}) },
		"subscriber-rung": func() (int, error) { return s.SendSharedBatch(topRung, SharedSendOpts{Egress: &egress}) },
	} {
		if _, err := send(); err != nil { // warm the buffer and the seq map
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := send(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per media frame, want 0", name, allocs)
		}
	}
}

// discardConn is recConn without the recording.
type discardConn struct{ *recConn }

func newDiscardConn() discardConn               { return discardConn{newRecConn()} }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// benchLadder is one media frame of the three-rung semantic ladder as
// the sender ships it at res 64: six tier-stamped wire frames (1 + 2 + 3
// channels), ≈11.5 kB of payload.
func benchLadder() []Frame {
	rungs := [][]int{{1100}, {1500, 1100}, {1500, 1100, 5200}}
	var frames []Frame
	for tier, rung := range rungs {
		for ch, size := range rung {
			flags := FlagKeyframe | FlagTier
			if ch == len(rung)-1 {
				flags |= FlagEndOfFrame
			}
			frames = append(frames, Frame{
				Type: TypeSemantic, Channel: uint16(ch + 1), Flags: flags,
				Tier: uint8(tier), TierCount: uint8(len(rungs)), Payload: make([]byte, size),
			})
		}
	}
	return frames
}

// BenchmarkLadderSend is the send layer's number without the 30 s
// harness: one media frame's six wire frames written one write each
// (per-frame) or serialized into the writer's buffer and handed over in
// one (batch). Over io.Discard it is serialization cost alone — ns and
// allocs per media frame, the same for both since the bytes are the
// same. Over a 100 Mbps netsim.Pipe (no propagation delay, receiver
// draining) ns/op is how long the sender is blocked per media frame:
// the link serializes 11.5 kB in 0.9 ms either way, and every further
// write is a rendezvous with the link's pump on top.
func BenchmarkLadderSend(b *testing.B) {
	frames := benchLadder()
	b.Run("discard/per-frame", func(b *testing.B) {
		fw := NewFrameWriter(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range frames {
				if err := fw.WriteFrame(&frames[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("discard/batch", func(b *testing.B) {
		fw := NewFrameWriter(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range frames {
				if err := fw.bufferFrame(&frames[j]); err != nil {
					b.Fatal(err)
				}
			}
			if err := fw.flush(); err != nil {
				b.Fatal(err)
			}
		}
	})

	pipe := func(b *testing.B, send func(*Session) error) {
		a, z, link := netsim.Pipe(netsim.LinkConfig{Bandwidth: 100e6})
		defer link.Close()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			sess, _, err := Accept(z, Hello{Peer: "sink"})
			for err == nil {
				_, err = sess.Recv()
			}
		}()
		sess, _, err := Dial(a, Hello{Peer: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := send(sess); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/frame")
		_ = sess.Close()
		<-drained
	}
	b.Run("pipe100/per-frame", func(b *testing.B) {
		pipe(b, func(s *Session) error {
			for j := range frames {
				// A batch of one is the single-frame send path.
				if _, err := s.SendBatch(frames[j : j+1]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("pipe100/batch", func(b *testing.B) {
		pipe(b, func(s *Session) error {
			_, err := s.SendBatch(frames)
			return err
		})
	})
}
