package lzr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"semholo/internal/body"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Compress(src)
	dec, err := Decompress(enc)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(dec))
	}
	return enc
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []byte{})
}

func TestRoundTripSmall(t *testing.T) {
	for _, s := range []string{"a", "ab", "abc", "aaaa", "abcabcabcabc", "\x00\x00\x00"} {
		roundTrip(t, []byte(s))
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := []byte(strings.Repeat("holographic telepresence ", 500))
	enc := roundTrip(t, src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 20 {
		t.Errorf("repetitive text ratio = %.1f, want > 20", ratio)
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 100, 1000, 100000} {
		src := make([]byte, n)
		rng.Read(src)
		enc := roundTrip(t, src)
		// Random data must not blow up badly.
		if len(enc) > n+n/8+64 {
			t.Errorf("random %d bytes expanded to %d", n, len(enc))
		}
	}
}

func TestRoundTripStructuredFloats(t *testing.T) {
	// Simulated pose-parameter payload: small deltas around fixed bytes,
	// the shape of SemHolo's keypoint frames.
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 0, 8000)
	for i := 0; i < 1000; i++ {
		src = append(src, 0x3F, 0x80, byte(rng.Intn(4)), byte(rng.Intn(16)),
			0, 0, byte(i&0xF), 0)
	}
	enc := roundTrip(t, src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 2 {
		t.Errorf("structured floats ratio = %.2f, want > 2", ratio)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(src []byte) bool {
		enc := Compress(src)
		dec, err := Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("LZRX\x05hello"),
		[]byte("LZR1"), // missing length
	}
	for _, c := range cases {
		if _, err := Decompress(c); err == nil {
			t.Errorf("accepted garbage %v", c)
		}
	}
}

// TestDecompressTruncated cuts a repetitive stream at three points, the
// last byte among them: each cut is ErrCorrupt, not wrong bytes.
func TestDecompressTruncated(t *testing.T) {
	src := []byte(strings.Repeat("abcdefgh", 100))
	enc := Compress(src)
	for _, cut := range []int{len(enc) / 2, len(enc) - 1, 6} {
		if cut >= len(enc) {
			continue
		}
		if dec, err := Decompress(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("stream cut to %d of %d bytes gave %d bytes, err %v; want ErrCorrupt", cut, len(enc), len(dec), err)
		}
	}
}

func TestDecompressBitFlips(t *testing.T) {
	// Flipping bits must never panic; errors or wrong output are both
	// acceptable outcomes for a non-checksummed entropy stream.
	src := []byte(strings.Repeat("semantic holography ", 50))
	enc := Compress(src)
	for i := 4; i < len(enc); i += 7 {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		_, _ = Decompress(mut) // must not panic
	}
}

func TestDistSlotRoundTrip(t *testing.T) {
	for _, d := range []uint32{1, 2, 3, 4, 5, 7, 8, 100, 1023, 1024, 65535, 1 << 20, 1<<28 + 12345} {
		slot, footer, fb := distSlot(d)
		if fb > 30 {
			t.Fatalf("dist %d: footer bits %d", d, fb)
		}
		if got := distFromSlot(slot, footer); got != d {
			t.Fatalf("dist %d -> slot %d footer %d -> %d", d, slot, footer, got)
		}
	}
}

func TestAllByteValues(t *testing.T) {
	src := make([]byte, 256*4)
	for i := range src {
		src[i] = byte(i)
	}
	roundTrip(t, src)
}

func BenchmarkCompress64K(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := make([]byte, 64*1024)
	for i := range src {
		if i > 100 && rng.Intn(3) > 0 {
			src[i] = src[i-100]
		} else {
			src[i] = byte(rng.Intn(64))
		}
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(src)
	}
}

func BenchmarkDecompress64K(b *testing.B) {
	src := []byte(strings.Repeat("volumetric content delivery ", 2400))
	enc := Compress(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompressConcurrentMatchesSerial is the pool-safety regression:
// Compress draws its match tables from a sync.Pool, so concurrent calls
// on mixed-size inputs must still round-trip and produce exactly the
// bytes a serial call does (a table leaking state between calls would
// change the matches found, and with them the stream).
func TestCompressConcurrentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := make([][]byte, 0, 10)
	for _, n := range []int{0, 1, 7, 300, 1600, 1601, 5000, 40000} {
		src := make([]byte, n)
		for i := range src {
			if i > 40 && rng.Intn(3) > 0 {
				src[i] = src[i-40]
			} else {
				src[i] = byte(rng.Intn(32))
			}
		}
		inputs = append(inputs, src)
	}
	inputs = append(inputs, body.Talking(nil).At(0.3).Marshal(), []byte(strings.Repeat("semantic ", 900)))
	want := make([][]byte, len(inputs))
	for i, src := range inputs {
		want[i] = Compress(src)
	}

	const goroutines, calls = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < calls; n++ {
				i := (g*31 + n*7) % len(inputs)
				enc := Compress(inputs[i])
				if !bytes.Equal(enc, want[i]) {
					t.Errorf("goroutine %d call %d: input %d compressed differently from the serial run", g, n, i)
					return
				}
				if dec, err := Decompress(enc); err != nil || !bytes.Equal(dec, inputs[i]) {
					t.Errorf("goroutine %d call %d: input %d failed to round-trip (%v)", g, n, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCompressPoseAllocs pins steady-state Compress of a marshalled pose
// (the payload every frame carries) under 8 KiB allocated per call: the
// 256 KiB hash-head table and the chain come from the pool. Run on a
// non-race line (make alloc-check).
func TestCompressPoseAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	src := body.Talking(nil).At(0.3).Marshal()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Compress(src)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 8<<10 {
		t.Fatalf("Compress of a %d-byte pose allocates %d B/op, want < 8 KiB", len(src), got)
	}
}

// TestCompressPoseOneAlloc pins steady-state Compress of a marshalled
// pose at one allocation, its output: the model is a stack copy and the
// match finder and the coder's output buffer are pooled. Run on a
// non-race line (make alloc-check).
func TestCompressPoseOneAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	src := body.Talking(nil).At(0.3).Marshal()
	Compress(src)
	if got := testing.AllocsPerRun(200, func() { Compress(src) }); got != 1 {
		t.Fatalf("Compress of a %d-byte pose makes %v allocations, want 1", len(src), got)
	}
}

// TestDecompressPoseOneAlloc pins Decompress of a pose stream at one
// allocation, its output. Run on a non-race line (make alloc-check).
func TestDecompressPoseOneAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	enc := Compress(body.Talking(nil).At(0.3).Marshal())
	got := testing.AllocsPerRun(200, func() {
		if _, err := Decompress(enc); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("Decompress of a %d-byte pose stream makes %v allocations, want 1", len(enc), got)
	}
}

// TestProbInvariant pins what lets the coder normalise once per bit:
// every probability adapt can reach from probInit lies in [31, 2017],
// and from any rng ≥ topValue a bit coded at such a probability leaves
// rng ≥ 2^16, which one 8-bit shift brings back to ≥ topValue.
func TestProbInvariant(t *testing.T) {
	seen := map[uint32]bool{probInit: true}
	queue := []uint32{probInit}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p < 31 || p > 2017 {
			t.Fatalf("adapt reaches probability %d, outside [31, 2017]", p)
		}
		for _, m := range []uint32{0, ^uint32(0)} {
			if q := adapt(p, m); !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	if !seen[31] || !seen[2017] {
		t.Fatalf("[31, 2017] is not tight: 31 reached %v, 2017 reached %v", seen[31], seen[2017])
	}
	// bound ≥ ⌊rng/2048⌋·31 ≥ 2^13·31 and rng − bound ≥ rng·31/2048 ≥
	// 2^24·31/2048, both above 2^16; the loop checks the edge cases.
	for _, rng := range []uint32{topValue, topValue + 2047, 1 << 31, 0xFFFFFFFF} {
		for p := uint32(31); p <= 2017; p++ {
			bound := (rng >> probBits) * p
			if bound < 1<<16 || rng-bound < 1<<16 {
				t.Fatalf("rng %#x, p %d: bound %#x, rng−bound %#x; one shift would not restore topValue", rng, p, bound, rng-bound)
			}
		}
	}
}

// hostileLength is a 14-byte stream whose header declares 4 GiB of
// output backed by five bytes of range-coder input.
func hostileLength() []byte {
	data := binary.AppendUvarint(append([]byte(nil), magic[:]...), 1<<32)
	return append(data, 0, 0, 0, 0, 0)
}

// TestDecompressHostileLengthAllocs pins validate-before-allocate: a
// stream declaring far more output than its bytes can back fails with
// ErrCorrupt having allocated at most 64 KiB, not the declared 4 GiB.
// The allocation half runs on a non-race line (make alloc-check).
func TestDecompressHostileLengthAllocs(t *testing.T) {
	data := hostileLength()
	if len(data) != 14 {
		t.Fatalf("hostile stream is %d bytes, want 14", len(data))
	}
	if _, err := Decompress(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress = %v, want ErrCorrupt", err)
	}
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = Decompress(data)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 64<<10 {
		t.Fatalf("Decompress of a 14-byte stream declaring 4 GiB allocates %d B/op, want ≤ 64 KiB", got)
	}
}
