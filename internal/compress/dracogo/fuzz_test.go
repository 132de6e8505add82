package dracogo

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"semholo/internal/compress/lzr"
	"semholo/internal/geom"
	"semholo/internal/mesh"
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

// hostileMesh is a mesh stream that declares 2^24 vertices and no faces,
// carries its bounds, then ends.
func hostileMesh() []byte {
	raw := append([]byte(meshMagic), 0, 14, 0, 0)
	raw = binary.AppendUvarint(raw, 1<<24)
	raw = binary.AppendUvarint(raw, 0)
	return lzr.Compress(append(raw, make([]byte, 6*8)...))
}

// checkHostileAllocs decodes a short stream declaring 2^24 elements: it
// must fail with ErrCorrupt having allocated at most 64 KiB.
func checkHostileAllocs(t *testing.T, data []byte, decode func([]byte) error) {
	t.Helper()
	if err := decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode = %v, want ErrCorrupt", err)
	}
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	if got := allocatedBytes(func() { _ = decode(data) }); got > 64<<10 {
		t.Fatalf("decoding a %d-byte stream declaring 2^24 elements allocates %d B, want ≤ 64 KiB", len(data), got)
	}
}

func TestDecodeMeshHostileCountAllocs(t *testing.T) {
	checkHostileAllocs(t, hostileMesh(), func(b []byte) error { _, err := DecodeMesh(b); return err })
}

// checkDecodeAllocs decodes data and bounds what it allocated. Each
// element takes at least minElementBytes of the decompressed payload and
// costs at most 64 B of output (a vertex with position, normal and UV; a
// face is 24 B), so the decoded slices stay under
// 64/minElementBytes bytes per payload byte; lzr may reserve up to 64
// bytes per input byte and grow its output buffer to a few times the
// payload. A few input bytes can expand to megabytes of payload, so
// streams over 4 KiB and payloads over 1 MiB are skipped: the count
// check under test does not depend on either size, and each exec stays
// fast and small.
func checkDecodeAllocs(t *testing.T, data []byte, decode func([]byte) error) {
	if len(data) > 4<<10 {
		t.Skip("stream over 4 KiB")
	}
	raw, _ := lzr.Decompress(data)
	if len(raw) > 1<<20 {
		t.Skip("payload over 1 MiB")
	}
	const perPayloadByte = 64/minElementBytes + 1 + 8
	limit := 64<<10 + 64*uint64(len(data)) + perPayloadByte*uint64(len(raw))
	var err error
	if alloc := allocatedBytes(func() { err = decode(data) }); alloc > limit {
		t.Fatalf("%d-byte stream (%d-byte payload, err %v) allocated %d B, ceiling %d", len(data), len(raw), err, alloc, limit)
	}
}

// seedStreams are the round-trip tests' kinds of stream — a sphere with
// normals, one with UVs, the empty mesh, coarse and fine quantisation —
// on small spheres, so that minimising an input the engine finds takes
// seconds, plus the hostile, wrong-magic and garbage streams.
func seedStreams() [][]byte {
	sphere := mesh.UnitSphere(1)
	uv := mesh.UnitSphere(1)
	uv.UVs = make([]geom.Vec2, len(uv.Vertices))
	for i, v := range uv.Vertices {
		uv.UVs[i] = geom.V2(0.5+0.5*v.X, 0.5+0.5*v.Y)
	}
	return [][]byte{
		EncodeMesh(sphere, Options{PositionBits: 14}),
		EncodeMesh(uv, Options{}),
		EncodeMesh(&mesh.Mesh{}, Options{}),
		EncodeMesh(sphere, Options{PositionBits: 12, NormalBits: 6}),
		EncodeMesh(mesh.UnitSphere(0), Options{PositionBits: 30}),
		hostileMesh(), lzr.Compress([]byte("DGC1\x00\x0e\x00")),
		{1, 2, 3}, []byte("DGM1"),
	}
}

// FuzzDecodeMesh feeds DecodeMesh arbitrary streams, seeded with the
// round-trip tests' encodings: it must never panic, its allocations are
// bounded by the decompressed payload, never by declared counts, and
// DecodeMeshInto over a dirty mesh with other attributes gives what
// DecodeMesh gives.
func FuzzDecodeMesh(f *testing.F) {
	for _, s := range seedStreams() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAllocs(t, data, func(b []byte) error { _, err := DecodeMesh(b); return err })
		fresh, err := DecodeMesh(data)
		dirty := mesh.UnitSphere(1)
		dirty.UVs = make([]geom.Vec2, len(dirty.Vertices))
		if errInto := DecodeMeshInto(dirty, data); (err == nil) != (errInto == nil) {
			t.Fatalf("DecodeMesh err %v, DecodeMeshInto err %v", err, errInto)
		}
		if err == nil && !reflect.DeepEqual(fresh, dirty) {
			t.Fatalf("DecodeMeshInto over a used mesh differs from DecodeMesh")
		}
	})
}
