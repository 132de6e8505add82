package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"semholo/internal/netsim"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	frames := []Frame{
		{Type: TypeSemantic, Channel: 3, Flags: FlagKeyframe, Seq: 7, Timestamp: 123456, Payload: []byte("pose data")},
		{Type: TypeControl, Channel: 0, Payload: nil},
		{Type: TypePing, Channel: 0, Payload: []byte{1, 2, 3, 4}},
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
		if got.Type != want.Type || got.Channel != want.Channel || got.Flags != want.Flags ||
			got.Seq != want.Seq || got.Timestamp != want.Timestamp {
			t.Fatalf("frame %d header mismatch: %+v vs %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(typ byte, channel, flags uint16, seq uint32, ts uint64, payload []byte) bool {
		in := Frame{Type: FrameType(typ), Channel: channel, Flags: flags, Seq: seq, Timestamp: ts, Payload: payload}
		if flags&FlagTier != 0 {
			// Tiered frames need in-range tier fields; derive them from the
			// other inputs so the extension round-trips under quick too.
			in.TierCount = uint8(channel%MaxTiers) + 1
			in.Tier = uint8(seq) % in.TierCount
		}
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		if err := fw.WriteFrame(&in); err != nil {
			// The rejected flag combinations: FlagHops without FlagTrace
			// and FlagTierSwitch without FlagTier. Everything else must
			// serialize.
			return (flags&FlagHops != 0 && flags&FlagTrace == 0) ||
				(flags&FlagTierSwitch != 0 && flags&FlagTier == 0)
		}
		out, err := NewFrameReader(&buf).ReadFrame()
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.Channel == in.Channel && out.Flags == in.Flags &&
			out.Seq == in.Seq && out.Timestamp == in.Timestamp &&
			out.Tier == in.Tier && out.TierCount == in.TierCount &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(&Frame{Type: TypeSemantic, Channel: 1, Payload: []byte("payload bytes here")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload bit: CRC must catch it.
	mut := append([]byte(nil), raw...)
	mut[headerLen+3] ^= 0x10
	if _, err := NewFrameReader(bytes.NewReader(mut)).ReadFrame(); !errors.Is(err, ErrBadCRC) {
		t.Errorf("payload corruption: err = %v, want ErrBadCRC", err)
	}
	// Break the magic.
	mut = append([]byte(nil), raw...)
	mut[0] = 0xFF
	if _, err := NewFrameReader(bytes.NewReader(mut)).ReadFrame(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v", err)
	}
	// Truncate mid-payload.
	if _, err := NewFrameReader(bytes.NewReader(raw[:headerLen+2])).ReadFrame(); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	big := make([]byte, MaxPayload+1)
	if err := fw.WriteFrame(&Frame{Type: TypeSemantic, Payload: big}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
}

func TestFrameZeroCopySemantics(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.WriteFrame(&Frame{Type: TypeSemantic, Payload: []byte("first")})
	fw.WriteFrame(&Frame{Type: TypeSemantic, Payload: []byte("xxxxx")})
	fr := NewFrameReader(&buf)
	f1, _ := fr.ReadFrame()
	keep := f1.Clone()
	fr.ReadFrame() // overwrites f1.Payload's backing array
	if string(keep.Payload) != "first" {
		t.Error("Clone did not detach payload")
	}
}

func sessionPair(t *testing.T, cfg netsim.LinkConfig) (*Session, *Session, *netsim.Link) {
	t.Helper()
	a, b, link := netsim.Pipe(cfg)
	type res struct {
		s   *Session
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, _, err := Accept(b, Hello{Peer: "B", Mode: "keypoint"})
		ch <- res{s, err}
	}()
	sa, peer, err := Dial(a, Hello{Peer: "A", Mode: "keypoint", Shape: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if peer.Peer != "B" {
		t.Fatalf("peer hello %+v", peer)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return sa, r.s, link
}

// sendData sends one semantic frame as a batch of one.
func sendData(s *Session, channel, flags uint16, payload []byte) error {
	_, err := s.SendBatch([]Frame{{Type: TypeSemantic, Channel: channel, Flags: flags, Payload: payload}})
	return err
}

func TestSessionHandshakeAndData(t *testing.T) {
	sa, sb, link := sessionPair(t, netsim.LinkConfig{})
	defer link.Close()
	defer sa.Close()

	go func() {
		sendData(sa, ChannelData, FlagKeyframe, []byte("frame-0"))
		sendData(sa, ChannelData, 0, []byte("frame-1"))
	}()
	f0, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f0.Seq != 0 || string(f0.Payload) != "frame-0" || f0.Flags&FlagKeyframe == 0 {
		t.Errorf("frame 0: %+v", f0)
	}
	f1, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f1.Seq != 1 || string(f1.Payload) != "frame-1" {
		t.Errorf("frame 1: %+v", f1)
	}
	st := sa.Stats()
	if st.FramesSent < 2 || st.BytesSent == 0 {
		t.Error("sender stats not counting")
	}
}

func TestSessionPingRTT(t *testing.T) {
	sa, sb, link := sessionPair(t, netsim.LinkConfig{Delay: 20 * time.Millisecond})
	defer link.Close()
	defer sa.Close()

	// B echoes pings inside Recv; unblock it with a data frame after.
	done := make(chan struct{})
	go func() {
		sb.Recv() // consumes ping (auto-answered), then waits for data
		close(done)
	}()
	if err := sa.Ping(); err != nil {
		t.Fatal(err)
	}
	// A must Recv to process the pong.
	go sendData(sa, ChannelData, 0, []byte("unblock-b"))
	recvDone := make(chan struct{})
	go func() {
		sa.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		sa.Recv() // will process pong then block; deadline unblocks
		close(recvDone)
	}()
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for sa.RTT() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rtt := sa.RTT()
	if rtt < 35*time.Millisecond {
		t.Errorf("RTT %v, want ≥ ~40ms on a 20ms-each-way link", rtt)
	}
}

func TestSessionOverConstrainedLink(t *testing.T) {
	// A 2 Mbps link: 100 KB takes ≈ 400 ms end to end.
	sa, sb, link := sessionPair(t, netsim.LinkConfig{Bandwidth: 2e6, MTU: 8192})
	defer link.Close()
	defer sa.Close()
	payload := make([]byte, 100*1024)
	start := time.Now()
	go sendData(sa, ChannelData, 0, payload)
	f, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(f.Payload) != len(payload) {
		t.Fatalf("payload truncated: %d", len(f.Payload))
	}
	if elapsed < 300*time.Millisecond {
		t.Errorf("100KB over 2Mbps in %v — pacing broken", elapsed)
	}
}

func TestBandwidthEstimatorConverges(t *testing.T) {
	e := NewBandwidthEstimator()
	now := time.Now()
	// 1 MB/s = 8 Mbps fed in 10 ms ticks for 2 s.
	for i := 0; i < 200; i++ {
		e.Observe(now.Add(time.Duration(i)*10*time.Millisecond), 10000)
	}
	got := e.Estimate()
	if got < 6e6 || got > 10e6 {
		t.Errorf("estimate %.1f Mbps, want ≈ 8", got/1e6)
	}
}

func TestFrameTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, ft := range []FrameType{TypeHandshake, TypeHandshakeAck, TypeSemantic, TypeControl, TypePing, TypePong, TypeClose} {
		s := ft.String()
		if s == "" || strings.HasPrefix(s, "invalid") || seen[s] {
			t.Errorf("bad string for %d: %q", ft, s)
		}
		seen[s] = true
	}
}

func TestSessionOverTCP(t *testing.T) {
	// The protocol must work over a real TCP loopback socket, not just
	// in-memory pipes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP available: %v", err)
	}
	defer ln.Close()
	type res struct {
		f   Frame
		err error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- res{err: err}
			return
		}
		s, _, err := Accept(conn, Hello{Peer: "server"})
		if err != nil {
			ch <- res{err: err}
			return
		}
		f, err := s.Recv()
		ch <- res{f.Clone(), err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, peer, err := Dial(conn, Hello{Peer: "client"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if peer.Peer != "server" {
		t.Errorf("peer = %+v", peer)
	}
	if err := sendData(s, ChannelData, FlagKeyframe, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if string(r.f.Payload) != "over tcp" {
		t.Errorf("payload %q", r.f.Payload)
	}
}

func BenchmarkFrameWriteRead(b *testing.B) {
	payload := make([]byte, 1500)
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fr := NewFrameReader(&buf)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := fw.WriteFrame(&Frame{Type: TypeSemantic, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := fr.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcurrentSendsAreSerialized(t *testing.T) {
	sa, sb, link := sessionPair(t, netsim.LinkConfig{})
	defer link.Close()
	defer sa.Close()

	const senders = 8
	const perSender = 20
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g)}, 100+g)
			for i := 0; i < perSender; i++ {
				if err := sendData(sa, ChannelData+uint16(g), 0, payload); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	// All frames must arrive intact (CRC catches torn writes) with
	// per-channel sequence numbers dense.
	seqs := map[uint16][]uint32{}
	for i := 0; i < senders*perSender; i++ {
		f, err := sb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if int(f.Payload[0]) != int(f.Channel-ChannelData) {
			t.Fatalf("channel %d carries foreign payload %d", f.Channel, f.Payload[0])
		}
		seqs[f.Channel] = append(seqs[f.Channel], f.Seq)
	}
	wg.Wait()
	for ch, got := range seqs {
		if len(got) != perSender {
			t.Errorf("channel %d: %d frames", ch, len(got))
		}
		for i, s := range got {
			if int(s) != i {
				t.Errorf("channel %d: seq %d at position %d", ch, s, i)
				break
			}
		}
	}
}
