package texture

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"semholo/internal/pointcloud"
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

// FuzzDecompressBTC feeds DecompressBTC arbitrary streams, seeded with
// CompressBTC output. Every rejection is ErrCorrupt; a stream whose
// header is well formed is accepted exactly when it holds 8 + 6 × blocks
// bytes; an accepted stream allocates at most width × height × 24 B (the
// decoded colours) plus a constant; and DecompressBTCInto into a reused,
// larger, dirty buffer gives the same colours as the fresh decode.
func FuzzDecompressBTC(f *testing.F) {
	for _, dim := range [][2]int{{16, 16}, {5, 7}, {1, 1}, {64, 48}} {
		enc, err := CompressBTC(gradientImage(dim[0], dim[1]), dim[0], dim[1])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte("BTC1"))
	f.Add([]byte("BTC1\x00\x00\x04\x00"))
	f.Add([]byte("nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("stream over 64 KiB")
		}
		var colors []pointcloud.Color
		var w, h int
		var err error
		alloc := allocatedBytes(func() { colors, w, h, err = DecompressBTC(data) })
		if len(data) >= 8 && string(data[:4]) == btcMagic {
			hw, hh := int(binary.LittleEndian.Uint16(data[4:])), int(binary.LittleEndian.Uint16(data[6:]))
			if hw > 0 && hh > 0 && hw <= 1<<14 && hh <= 1<<14 {
				blocks := ((hw + 3) / 4) * ((hh + 3) / 4)
				if ok := len(data) == 8+6*blocks; ok != (err == nil) {
					t.Fatalf("%dx%d header, %d bytes for %d blocks: err %v", hw, hh, len(data), blocks, err)
				}
			}
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v is not ErrCorrupt", err)
			}
			return
		}
		if len(colors) != w*h {
			t.Fatalf("%dx%d stream decoded to %d colours", w, h, len(colors))
		}
		if limit := uint64(w*h)*24 + 4<<10; alloc > limit {
			t.Fatalf("%dx%d stream allocated %d B, ceiling %d", w, h, alloc, limit)
		}
		dst := make([]pointcloud.Color, w*h+17)
		for i := range dst {
			dst[i] = pointcloud.Color{R: -1, G: 2, B: 7}
		}
		reused, rw, rh, err := DecompressBTCInto(dst, data)
		if err != nil || rw != w || rh != h {
			t.Fatalf("reused decode: %dx%d err %v, fresh %dx%d", rw, rh, err, w, h)
		}
		if len(reused) != len(colors) || &reused[0] != &dst[0] {
			t.Fatalf("reused decode gave %d colours outside dst", len(reused))
		}
		for i := range colors {
			if reused[i] != colors[i] {
				t.Fatalf("pixel %d: reused %+v, fresh %+v", i, reused[i], colors[i])
			}
		}
	})
}
