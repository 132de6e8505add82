package transport

import (
	"bytes"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"semholo/internal/netsim"
)

// TestCRCShiftOperator validates the combine identity against direct
// computation across payload lengths including zero and non-byte-round
// sizes.
func TestCRCShiftOperator(t *testing.T) {
	shiftTablesOnce.Do(initShiftTables)
	rng := rand.New(rand.NewSource(7))
	for _, lenA := range []int{0, 1, 24, 48, 100} {
		for _, lenB := range []int{0, 1, 2, 3, 7, 64, 1000, 65536} {
			a := make([]byte, lenA)
			b := make([]byte, lenB)
			rng.Read(a)
			rng.Read(b)
			got := crcCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), len(b))
			want := crc32.ChecksumIEEE(append(append([]byte(nil), a...), b...))
			if got != want {
				t.Errorf("combine(len %d, len %d) = %08x, want %08x", lenA, lenB, got, want)
			}
		}
	}
}

// TestWriteSharedFrameByteIdentical is the wire-compat regression for
// the serialize-once path: for every payload size, frame type, and
// trace setting, WriteSharedFrameLeg must produce exactly the bytes
// WriteFrame produces for the equivalent frame.
func TestWriteSharedFrameByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		f    Frame
	}{
		{"empty", Frame{Type: TypeSemantic, Channel: 3}},
		{"one-byte", Frame{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe, Payload: []byte{0xAB}}},
		{"control", Frame{Type: TypeControl, Channel: ChannelControl, Payload: []byte(`{"gaze":[0,1.5,0]}`)}},
		{"small", Frame{Type: TypeSemantic, Channel: 1007, Flags: FlagCompressed, Payload: make([]byte, 333)}},
		{"large", Frame{Type: TypeSemantic, Channel: 2, Flags: FlagKeyframe | FlagCompressed, Payload: make([]byte, 70000)}},
		{"traced", Frame{
			Type: TypeSemantic, Channel: 5, Flags: FlagTrace | FlagKeyframe,
			CaptureTS: 111222333, SendTS: 111222999, TraceID: 42, Payload: make([]byte, 4096),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng.Read(tc.f.Payload)
			tc.f.Seq = rng.Uint32()
			tc.f.Timestamp = rng.Uint64()

			var legacy bytes.Buffer
			if err := NewFrameWriter(&legacy).WriteFrame(&tc.f); err != nil {
				t.Fatal(err)
			}
			sf, err := SharedFromFrame(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			var shared bytes.Buffer
			if err := NewFrameWriter(&shared).WriteSharedFrameLeg(sf, tc.f.Seq, tc.f.Timestamp, tc.f.SendTS, nil, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(legacy.Bytes(), shared.Bytes()) {
				t.Fatalf("wire bytes diverge: legacy %d bytes, shared %d bytes", legacy.Len(), shared.Len())
			}
			// And the shared bytes decode with a valid CRC.
			f, err := NewFrameReader(&shared).ReadFrame()
			if err != nil {
				t.Fatalf("decode shared frame: %v", err)
			}
			if !bytes.Equal(f.Payload, tc.f.Payload) || f.Seq != tc.f.Seq || f.Channel != tc.f.Channel {
				t.Errorf("decoded frame mismatch: %+v", f)
			}
		})
	}
}

// TestWriteSharedFrameReusableAcrossWriters proves one SharedFrame can
// be emitted through many writers with distinct seq/timestamps, each
// producing an independently valid frame.
func TestWriteSharedFrameReusableAcrossWriters(t *testing.T) {
	payload := bytes.Repeat([]byte("holo"), 512)
	sf, err := NewSharedFrame(TypeSemantic, 9, FlagKeyframe, payload)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 8; seq++ {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteSharedFrameLeg(sf, seq, uint64(seq)*100, 0, nil, 0); err != nil {
			t.Fatal(err)
		}
		f, err := NewFrameReader(&buf).ReadFrame()
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if f.Seq != seq || f.Timestamp != uint64(seq)*100 || !bytes.Equal(f.Payload, payload) {
			t.Errorf("seq %d decoded %+v", seq, f)
		}
	}
}

// TestSendSharedWireCompat sends the same logical stream through
// SendBatch and SendSharedBatch, interleaved on one session, and asserts
// the receiver sees identical frames (modulo the sender-clock timestamp)
// with the per-(peer,channel) sequence numbering preserved.
func TestSendSharedWireCompat(t *testing.T) {
	sa, sb, link := sessionPair(t, netsim.LinkConfig{})
	defer link.Close()
	defer sa.Close()

	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 100)
	sf, err := NewSharedFrame(TypeSemantic, 7, FlagKeyframe, payload)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		sendData(sa, 7, FlagKeyframe, payload)                   // seq 0, serialized path
		sa.SendSharedBatch([]*SharedFrame{sf}, SharedSendOpts{}) // seq 1, raw path
		sendData(sa, 7, FlagKeyframe, payload)                   // seq 2, serialized again
	}()
	for want := uint32(0); want < 3; want++ {
		f, err := sb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != TypeSemantic || f.Channel != 7 || f.Flags != FlagKeyframe || f.Seq != want {
			t.Errorf("frame %d: %+v", want, f)
		}
		if !bytes.Equal(f.Payload, payload) {
			t.Errorf("frame %d payload mismatch", want)
		}
	}
}

// TestSendSharedTracedRestampsSendTS: a relayed traced frame keeps
// capture time and trace ID but gets a fresh send timestamp per hop.
func TestSendSharedTracedRestampsSendTS(t *testing.T) {
	sa, sb, link := sessionPair(t, netsim.LinkConfig{})
	defer link.Close()
	defer sa.Close()

	sf, err := NewSharedFrame(TypeSemantic, 2, FlagTrace, []byte("traced"))
	if err != nil {
		t.Fatal(err)
	}
	sf.CaptureTS, sf.TraceID = 123456, 99
	go sa.SendSharedBatch([]*SharedFrame{sf}, SharedSendOpts{})
	f, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.CaptureTS != 123456 || f.TraceID != 99 {
		t.Errorf("trace ext not forwarded: %+v", f)
	}
	if f.SendTS == 0 {
		t.Error("SendTS not restamped at write time")
	}
}

// The benchmark pair behind the serialize-once claim: fanning one 4 KiB
// frame out to 64 subscribers with per-subscriber re-serialization vs
// the SharedFrame path. The delta is the per-broadcast CPU the relay no
// longer spends; allocs on the shared path stay independent of N.
const benchSubscribers = 64

func benchPayload() []byte {
	p := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(p)
	return p
}

func BenchmarkRelayFanoutSerial(b *testing.B) {
	payload := benchPayload()
	writers := make([]*FrameWriter, benchSubscribers)
	for i := range writers {
		writers[i] = NewFrameWriter(io.Discard)
	}
	seqs := make([]uint32, benchSubscribers)
	b.SetBytes(int64(len(payload) * benchSubscribers))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f := Frame{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe, Timestamp: uint64(n), Payload: payload}
		for i, fw := range writers {
			f.Seq = seqs[i]
			seqs[i]++
			if err := fw.WriteFrame(&f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRelayFanoutShared(b *testing.B) {
	payload := benchPayload()
	writers := make([]*FrameWriter, benchSubscribers)
	for i := range writers {
		writers[i] = NewFrameWriter(io.Discard)
	}
	seqs := make([]uint32, benchSubscribers)
	b.SetBytes(int64(len(payload) * benchSubscribers))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sf, err := NewSharedFrame(TypeSemantic, 1, FlagKeyframe, payload)
		if err != nil {
			b.Fatal(err)
		}
		for i, fw := range writers {
			if err := fw.WriteSharedFrameLeg(sf, seqs[i], uint64(n), 0, nil, 0); err != nil {
				b.Fatal(err)
			}
			seqs[i]++
		}
	}
}
