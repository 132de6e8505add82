package transport

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"testing"

	"semholo/internal/obs"
)

// loopReader replays one encoded frame forever — a steady-state trunk
// ingress for benchmarks, with no pipe or syscall noise.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// tracedSharedFrame builds a hop-traced shared frame over payload, as a
// relay's ingress would hold it.
func tracedSharedFrame(t testing.TB, payload []byte) *SharedFrame {
	t.Helper()
	sf, err := NewSharedFrame(TypeSemantic, 1, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	sf.CaptureTS, sf.TraceID = 1, 2
	if !sf.AppendHop(obs.Hop{Kind: obs.HopSender, Site: 1, RecvMicros: 1, SendMicros: 2}) {
		t.Fatal("sender hop did not fit")
	}
	return sf
}

// encodeEgressFrame renders one egress emission of sf to bytes — what a
// downstream shard receives on a trunk.
func encodeEgressFrame(t testing.TB, sf *SharedFrame) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := NewFrameWriter(&wire).WriteSharedFrameLeg(sf, 0, 0, 0,
		&obs.Hop{Kind: obs.HopRelayEgress, Site: 1, RecvMicros: 3}, 0); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestTrunkLegAllocsMatchSubscriberLeg is the benchmark-backed pin on
// the cascade cost model: a trunk leg must cost what a subscriber leg
// costs. Measured three ways:
//
//  1. the per-leg write itself — WriteSharedFrameLeg — allocates
//     nothing on either kind of leg (the ≤2 allocs/frame of the shared
//     path are the ingress capture, paid once, not per leg);
//  2. a write on a SharedFromWire re-shared frame (what a downstream
//     shard's egress emits) allocates exactly what a write on a
//     first-hand SharedFrame does;
//  3. the full downstream re-share — read + adopt + SharedFromWire —
//     allocates no more than the copying SharedFromFrame capture it
//     replaces, while skipping the payload copy and CRC pass entirely.
func TestTrunkLegAllocsMatchSubscriberLeg(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	payload := benchPayload()

	subscriberWrite := testing.Benchmark(func(b *testing.B) {
		sf := tracedSharedFrame(b, payload)
		fw := NewFrameWriter(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := fw.WriteSharedFrameLeg(sf, uint32(n), uint64(n), 0,
				&obs.Hop{Kind: obs.HopRelayEgress, RecvMicros: 3}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	trunkWrite := testing.Benchmark(func(b *testing.B) {
		enc := encodeEgressFrame(b, tracedSharedFrame(b, payload))
		fr := NewFrameReader(&loopReader{data: enc})
		f, err := fr.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		p, crc, ok := fr.AdoptPayload(f)
		if !ok {
			b.Fatal("payload adoption failed")
		}
		rsf, err := SharedFromWire(f, p, crc)
		if err != nil {
			b.Fatal(err)
		}
		fw := NewFrameWriter(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := fw.WriteSharedFrameLeg(rsf, uint32(n), uint64(n), 0,
				&obs.Hop{Kind: obs.HopRelayEgress, RecvMicros: 4}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	if got := subscriberWrite.AllocsPerOp(); got > 2 {
		t.Errorf("subscriber leg write = %d allocs/frame, want ≤ 2", got)
	}
	if s, tr := subscriberWrite.AllocsPerOp(), trunkWrite.AllocsPerOp(); tr != s {
		t.Errorf("trunk leg write = %d allocs/frame, subscriber leg = %d; must be equal", tr, s)
	}

	// Full downstream re-share: adoption must not cost a single alloc
	// more than the copying capture it replaces.
	adoptReShare := testing.Benchmark(func(b *testing.B) {
		enc := encodeEgressFrame(b, tracedSharedFrame(b, payload))
		fr := NewFrameReader(&loopReader{data: enc})
		fw := NewFrameWriter(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			f, err := fr.ReadFrame()
			if err != nil {
				b.Fatal(err)
			}
			p, crc, ok := fr.AdoptPayload(f)
			if !ok {
				b.Fatal("payload adoption failed")
			}
			rsf, err := SharedFromWire(f, p, crc)
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.WriteSharedFrameLeg(rsf, uint32(n), uint64(n), 0,
				&obs.Hop{Kind: obs.HopRelayEgress, RecvMicros: 4}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	copyReShare := testing.Benchmark(func(b *testing.B) {
		enc := encodeEgressFrame(b, tracedSharedFrame(b, payload))
		fr := NewFrameReader(&loopReader{data: enc})
		fw := NewFrameWriter(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			f, err := fr.ReadFrame()
			if err != nil {
				b.Fatal(err)
			}
			rsf, err := SharedFromFrame(f)
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.WriteSharedFrameLeg(rsf, uint32(n), uint64(n), 0,
				&obs.Hop{Kind: obs.HopRelayEgress, RecvMicros: 4}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a, c := adoptReShare.AllocsPerOp(), copyReShare.AllocsPerOp(); a > c {
		t.Errorf("adopting re-share = %d allocs/frame, copying re-share = %d; adoption must not cost more", a, c)
	}
}

// TestSharedFromWireRoundTrip pins the semantics the trunk depends on:
// the re-shared frame re-emits byte-identically (same payload bytes,
// valid CRC splice) and the adoption bookkeeping refuses frames it
// cannot safely take over.
func TestSharedFromWireRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("wire"), 300)
	enc := encodeEgressFrame(t, tracedSharedFrame(t, payload))

	fr := NewFrameReader(bytes.NewReader(enc))
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	p, crc, ok := fr.AdoptPayload(f)
	if !ok {
		t.Fatal("payload adoption failed on a fresh read")
	}
	if _, _, again := fr.AdoptPayload(f); again {
		t.Fatal("second adoption of the same read must fail")
	}
	sf, err := SharedFromWire(f, p, crc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sf.Hops()); got != len(f.Hops) {
		t.Fatalf("re-shared frame carries %d hops, want %d", got, len(f.Hops))
	}

	// Re-emit and decode: the spliced CRC must verify and the payload
	// survive untouched.
	var wire bytes.Buffer
	if err := NewFrameWriter(&wire).WriteSharedFrameLeg(sf, 7, 8, 9, nil, 0); err != nil {
		t.Fatal(err)
	}
	rf, err := NewFrameReader(&wire).ReadFrame()
	if err != nil {
		t.Fatalf("re-emitted trunk frame failed to decode: %v", err)
	}
	if !bytes.Equal(rf.Payload, payload) {
		t.Fatal("payload corrupted through adopt + re-emit")
	}
	if rf.TraceID != f.TraceID || rf.CaptureTS != f.CaptureTS || rf.Channel != f.Channel {
		t.Fatalf("header identity lost: %+v vs %+v", rf, f)
	}
}

// TestAdoptPayloadRefusesClones: a cloned frame's payload is not the
// reader's buffer; adoption must refuse it (the fallback copies).
func TestAdoptPayloadRefusesClones(t *testing.T) {
	enc := encodeEgressFrame(t, tracedSharedFrame(t, []byte("own-me")))
	fr := NewFrameReader(bytes.NewReader(enc))
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fr.AdoptPayload(f.Clone()); ok {
		t.Fatal("adopted a cloned frame's payload")
	}
	// The original is still adoptable: the refusal must not detach.
	if _, _, ok := fr.AdoptPayload(f); !ok {
		t.Fatal("original frame no longer adoptable after a refused clone")
	}
}

// FuzzSharedFromWire runs fuzzed bytes through a trunk ingress's capture
// — ReadFrame, then AdoptPayload and SharedFromWire, with the copying
// SharedFromFrame checked alongside as the fallback — and re-emits each
// captured frame through WriteSharedFrameLeg with the frame's own seq,
// timestamp and send stamp. The wire format has one encoding per frame
// and a capture drops nothing, so each re-emission must be exactly the
// bytes the reader consumed, and every frame the reader accepts must be
// capturable. A whole input — read, both captures, re-emission —
// allocates at most 76 KiB (the reader's 64 KiB first chunk, the reader's
// and writer's 4 KiB buffers, error values), four times its length and
// 512 B per frame, never a declared length alone. Seeded with the golden-bytes layout in
// every flag combination.
func FuzzSharedFromWire(f *testing.F) {
	frames := wireFrames(f)
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add(bytes.Join(frames, nil))
	f.Add(append(bytes.Join(frames[:4], nil), hostileHeader()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		n := reshare(t, data)
		// TotalAlloc is process-wide: take the fewest bytes over three runs.
		alloc := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			reshare(t, data)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(76<<10 + 4*len(data) + 512*n); alloc > limit {
			t.Fatalf("%d-byte input (%d frames) allocated %d B, ceiling %d", len(data), n, alloc, limit)
		}
	})
}

// reshare captures and re-emits every frame of data up to the first read
// error, failing t where a re-emission differs from the bytes read, and
// returns the number of frames read.
func reshare(t *testing.T, data []byte) int {
	src := bytes.NewReader(data)
	fr := NewFrameReader(src)
	var out bytes.Buffer
	fw := NewFrameWriter(&out)
	for n := 0; ; n++ {
		start := len(data) - src.Len()
		f, err := fr.ReadFrame()
		if err != nil {
			return n
		}
		consumed := data[start : len(data)-src.Len()]
		copied, err := SharedFromFrame(f)
		if err != nil {
			t.Fatalf("frame %d: read but SharedFromFrame refused it: %v", n, err)
		}
		payload, crc, ok := fr.AdoptPayload(f)
		if !ok {
			t.Fatalf("frame %d: payload not adoptable", n)
		}
		adopted, err := SharedFromWire(f, payload, crc)
		if err != nil {
			t.Fatalf("frame %d: read but SharedFromWire refused it: %v", n, err)
		}
		for _, sf := range []*SharedFrame{adopted, copied} {
			out.Reset()
			if err := fw.WriteSharedFrameLeg(sf, f.Seq, f.Timestamp, f.SendTS, nil, 0); err != nil {
				t.Fatalf("frame %d: re-emit: %v", n, err)
			}
			if !bytes.Equal(out.Bytes(), consumed) {
				t.Fatalf("frame %d re-emitted as\n%x\nread from\n%x", n, out.Bytes(), consumed)
			}
		}
	}
}
