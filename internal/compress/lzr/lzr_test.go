package lzr

import (
	"bytes"
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

func TestDecompressTruncated(t *testing.T) {
	src := []byte(strings.Repeat("abcdefgh", 100))
	enc := Compress(src)
	for _, cut := range []int{len(enc) / 2, len(enc) - 1, 6} {
		if cut >= len(enc) {
			continue
		}
		if dec, err := Decompress(enc[:cut]); err == nil && bytes.Equal(dec, src) {
			t.Errorf("truncated stream at %d decoded to full original", cut)
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
