package lzr

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"semholo/internal/body"
)

// allocatedBytes reports the fewest bytes the heap handed out across
// three runs of fn. TotalAlloc is process-wide, so one reading can
// include a fuzzing-engine goroutine's allocations; fn's own are the
// same on every run.
func allocatedBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzLZRDecompress feeds Decompress arbitrary bytes, seeded with the
// streams of the round-trip tests plus the malformed ones. It must never
// panic; its allocations are bounded by the stream (the up-front
// reservation) plus what the stream actually produced — never by the
// declared length alone; whatever it accepts must round-trip through
// Compress, and that canonical stream with its last byte dropped must be
// rejected; and the accepted stream itself with its last byte dropped
// must be rejected or, when that byte was trailing input the decoder
// never read, decode to the same bytes.
func FuzzLZRDecompress(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 1000)
	rng.Read(random)
	floats := make([]byte, 0, 800)
	for i := 0; i < 100; i++ {
		floats = append(floats, 0x3F, 0x80, byte(rng.Intn(4)), byte(rng.Intn(16)), 0, 0, byte(i&0xF), 0)
	}
	pose := body.Talking(nil).At(0.3)
	for _, src := range [][]byte{
		nil, []byte("a"), []byte("abcabcabcabc"), []byte("\x00\x00\x00"),
		[]byte(strings.Repeat("holographic telepresence ", 40)),
		random, floats, pose.Marshal(), pose.MarshalCompact(),
	} {
		f.Add(Compress(src))
	}
	for _, bad := range [][]byte{
		{1, 2, 3}, []byte("LZRX\x05hello"), []byte("LZR1"), hostileLength(),
	} {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var out []byte
		var err error
		alloc := allocatedBytes(func() { out, err = decompress(data) })
		limit := uint64(64<<10 + reserveRatio*len(data) + 8*len(out))
		if alloc > limit {
			t.Fatalf("%d-byte stream (%d bytes out, err %v) allocated %d B, ceiling %d", len(data), len(out), err, alloc, limit)
		}
		if err != nil {
			return
		}
		enc := Compress(out)
		if back, err := Decompress(enc); err != nil || !bytes.Equal(back, out) {
			t.Fatalf("accepted output of %d bytes does not round-trip (%v)", len(out), err)
		}
		if _, err := Decompress(enc[:len(enc)-1]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Compress stream of %d bytes with its last byte dropped: err %v, want ErrCorrupt", len(out), err)
		}
		if cut, err := Decompress(data[:len(data)-1]); err == nil && !bytes.Equal(cut, out) {
			t.Fatalf("accepted stream with its last byte dropped decoded to different bytes (%d vs %d)", len(cut), len(out))
		}
	})
}
