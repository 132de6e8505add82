package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"semholo/internal/obs"
)

// hostileHeader is a 24-byte frame header declaring a MaxPayload payload
// that never follows.
func hostileHeader() []byte {
	h := appendHeader(nil, TypeSemantic, ChannelData, FlagKeyframe, 1, 2, MaxPayload)
	binary.BigEndian.PutUint32(h[20:], MaxPayload)
	return h
}

// TestReadFrameHostileLengthAllocs pins read-before-allocate: a header
// declaring MaxPayload followed by EOF fails having allocated one first
// chunk (64 KiB) plus the error value, not the declared 16 MiB. The
// allocation half runs on a non-race line (make alloc-check).
func TestReadFrameHostileLengthAllocs(t *testing.T) {
	data := hostileHeader()
	if len(data) != headerLen {
		t.Fatalf("hostile header is %d bytes, want %d", len(data), headerLen)
	}
	if _, err := NewFrameReader(bytes.NewReader(data)).ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadFrame = %v, want a truncated-payload EOF", err)
	}
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		fr := NewFrameReader(nil)
		src := bytes.NewReader(data)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A reader that kept a buffer from the last read would
			// hide what this one allocates.
			src.Reset(data)
			fr.r, fr.payload = src, nil
			_, _ = fr.ReadFrame()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 64<<10+1<<10 {
		t.Fatalf("a 24-byte header declaring %d B allocates %d B/op, want ≤ 64 KiB plus the error", MaxPayload, got)
	}
}

// TestReadFrameChunkedPayload: a payload larger than one chunk reads back
// intact and adoptable, and one cut short anywhere is a clean
// ErrUnexpectedEOF.
func TestReadFrameChunkedPayload(t *testing.T) {
	const chunk = 64 << 10
	payload := make([]byte, 3*chunk+123)
	rand.New(rand.NewSource(1)).Read(payload)
	var wire bytes.Buffer
	if err := NewFrameWriter(&wire).WriteFrame(&Frame{Type: TypeSemantic, Channel: ChannelData, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(wire.Bytes()))
	f, err := fr.ReadFrame()
	if err != nil || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("large payload did not round-trip (err %v)", err)
	}
	if _, crc, ok := fr.AdoptPayload(f); !ok || crc != crc32.ChecksumIEEE(payload) {
		t.Fatalf("AdoptPayload ok=%v crc %#x, want the payload's", ok, crc)
	}
	for _, cut := range []int{headerLen + 1, headerLen + chunk, headerLen + 2*chunk + 7} {
		_, err := NewFrameReader(bytes.NewReader(wire.Bytes()[:cut])).ReadFrame()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// wireFrames returns one encoded frame per legal combination of the four
// flag-gated extensions (FlagHops needs FlagTrace, FlagTierSwitch needs
// FlagTier), in the layout of the golden-bytes tests.
func wireFrames(t testing.TB) [][]byte {
	var out [][]byte
	for _, trace := range []uint16{0, FlagTrace, FlagTrace | FlagHops} {
		for _, tier := range []uint16{0, FlagTier, FlagTier | FlagTierSwitch} {
			f := Frame{
				Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame | trace | tier,
				Seq: 7, Timestamp: 0x0102030405060708, Payload: []byte("semholo"),
			}
			if trace != 0 {
				f.CaptureTS, f.SendTS, f.TraceID = 1000, 2000, 42
			}
			if trace&FlagHops != 0 {
				f.Hops = []obs.Hop{{Kind: obs.HopRelayEgress, Site: 3, RecvMicros: 5, SendMicros: 9}}
			}
			if tier != 0 {
				f.Tier, f.TierCount = 1, 3
			}
			var buf bytes.Buffer
			if err := NewFrameWriter(&buf).WriteFrame(&f); err != nil {
				t.Fatalf("flags %#x: %v", f.Flags, err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

// adoptAll reads frames from data until the first error, adopting every
// accepted payload, and returns the adopted payloads with their CRCs.
func adoptAll(fr *FrameReader) (payloads [][]byte, crcs []uint32) {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return payloads, crcs
		}
		p, crc, ok := fr.AdoptPayload(f)
		if !ok {
			p, crc = append([]byte(nil), f.Payload...), crc32.ChecksumIEEE(f.Payload)
		}
		payloads, crcs = append(payloads, p), append(crcs, crc)
	}
}

// FuzzFrameReader feeds FrameReader arbitrary byte streams, seeded with
// every flag combination of the wire format, one frame alone and all of
// them back to back, plus a hostile length. It must never panic; reading
// a whole stream allocates at most 64 KiB plus twice the stream's length
// (and 1 KiB for error values), never the declared lengths alone; and
// every accepted payload's adopted CRC is the payload's own.
func FuzzFrameReader(f *testing.F) {
	frames := wireFrames(f)
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add(bytes.Join(frames, nil))
	f.Add(append(bytes.Join(frames[:4], nil), hostileHeader()...))
	f.Add(hostileHeader())
	random := make([]byte, 200)
	rand.New(rand.NewSource(1)).Read(random)
	f.Add(random)

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, crcs := adoptAll(NewFrameReader(bytes.NewReader(data)))
		for i, p := range payloads {
			if crcs[i] != crc32.ChecksumIEEE(p) {
				t.Fatalf("frame %d: adopted CRC %#x, payload's %#x", i, crcs[i], crc32.ChecksumIEEE(p))
			}
		}
		// TotalAlloc is process-wide, so take the fewest bytes over three
		// reads: a fuzzing-engine goroutine's allocations may land in one.
		alloc := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			fr := NewFrameReader(bytes.NewReader(data))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			adoptAll(fr)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(64<<10 + 2*len(data) + 1<<10); alloc > limit {
			t.Fatalf("%d-byte stream (%d frames) allocated %d B, ceiling %d", len(data), len(payloads), alloc, limit)
		}
	})
}
