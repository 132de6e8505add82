package lzr_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"semholo/internal/body"
	"semholo/internal/compress/dracogo"
	"semholo/internal/compress/lzr"
	"semholo/internal/geom"
	"semholo/internal/mesh"
)

// fovealBuffer is a dracogo mesh buffer the size of the hybrid encoder's
// foveal patch (the bytes dracogo hands lzr.Compress): the 1536 faces of
// a level-4 unit sphere with the highest centroids, scaled to a 0.3 m
// patch, their 815 vertices compacted, positions only, 14 position bits.
func fovealBuffer(tb testing.TB) []byte {
	tb.Helper()
	s := mesh.UnitSphere(4)
	order := make([]int, len(s.Faces))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		za, zb := s.FaceCentroid(a).Z, s.FaceCentroid(b).Z
		switch {
		case za > zb:
			return -1
		case za < zb:
			return 1
		}
		return 0
	})
	m := &mesh.Mesh{Vertices: make([]geom.Vec3, len(s.Vertices))}
	for i, v := range s.Vertices {
		m.Vertices[i] = v.Scale(0.3)
	}
	for _, fi := range order[:1536] {
		m.Faces = append(m.Faces, s.Faces[fi])
	}
	m.CompactVertices()
	raw, err := lzr.Decompress(dracogo.EncodeMesh(m, dracogo.Options{PositionBits: 14}))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// corpus is the fixed input set of the byte-identity tests: marshalled
// poses in both wire forms, the foveal dracogo buffer, random bytes and
// repetitive ones.
func corpus(tb testing.TB) [][]byte {
	tb.Helper()
	var in [][]byte
	for _, motion := range []body.Motion{body.Talking(nil), body.Walking(nil), body.Waving(nil)} {
		for _, t := range []float64{0, 0.3, 1.7, 4.1} {
			p := motion.At(t)
			in = append(in, p.Marshal(), p.MarshalCompact())
		}
	}
	in = append(in, fovealBuffer(tb))
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{0, 1, 2, 3, 4, 17, 300, 4096, 20000} {
		b := make([]byte, n)
		rng.Read(b)
		in = append(in, b)
	}
	structured := make([]byte, 0, 8000)
	for i := 0; i < 1000; i++ {
		structured = append(structured, 0x3F, 0x80, byte(rng.Intn(4)), byte(rng.Intn(16)), 0, 0, byte(i&0xF), 0)
	}
	echo := make([]byte, 30000)
	for i := range echo {
		if i > 100 && rng.Intn(3) > 0 {
			echo[i] = echo[i-100-rng.Intn(3)]
		} else {
			echo[i] = byte(rng.Intn(64))
		}
	}
	in = append(in,
		structured, echo,
		[]byte(strings.Repeat("holographic telepresence ", 500)),
		make([]byte, 5000),
		bytes.Repeat([]byte{0xFF}, 1000),
	)
	return in
}

// goldenDigest is the SHA-256 of the corpus's Compress streams, each
// preceded by its length as a uvarint, recorded from the reference coder.
const goldenDigest = "395daff449b5ce3c705835c45d15d9cb8f30d4a90b8b71916e76e96ac7ca0f98"

// TestCompressGoldenDigest pins the streams Compress writes for the
// corpus: a rewrite of the coder must not change a single byte.
func TestCompressGoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, src := range corpus(t) {
		enc := lzr.Compress(src)
		h.Write(binary.AppendUvarint(nil, uint64(len(enc))))
		h.Write(enc)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("Compress corpus digest = %s, want %s", got, goldenDigest)
	}
}

// sameResult reports how Decompress's result on data differs from the
// reference decoder's, or "" when they agree: the same bytes, or both
// ErrCorrupt. The one sanctioned difference is a stream the reference
// accepts although its input ran out: Decompress must reject it.
func sameResult(data []byte) string {
	got, err := lzr.Decompress(data)
	want, underran, refErr := decompressReference(data)
	switch {
	case refErr == nil && underran:
		if !errors.Is(err, lzr.ErrCorrupt) {
			return "accepted a stream whose input ran out"
		}
	case (err == nil) != (refErr == nil):
		return "error " + errString(err) + ", reference " + errString(refErr)
	case err != nil && !errors.Is(err, lzr.ErrCorrupt):
		return "error " + err.Error() + " is not ErrCorrupt"
	case !bytes.Equal(got, want):
		return "output differs from the reference"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// TestCompressMatchesReference checks every corpus input, and each of its
// streams with a byte flipped, against the reference coder.
func TestCompressMatchesReference(t *testing.T) {
	for i, src := range corpus(t) {
		enc := lzr.Compress(src)
		if want := compressReference(src); !bytes.Equal(enc, want) {
			t.Fatalf("input %d (%d B): stream differs from the reference", i, len(src))
		}
		if d := sameResult(enc); d != "" {
			t.Fatalf("input %d (%d B): %s", i, len(src), d)
		}
		for j := 4; j < len(enc); j += 1 + len(enc)/64 {
			mut := slices.Clone(enc)
			mut[j] ^= 1 << (j % 8)
			if d := sameResult(mut); d != "" {
				t.Fatalf("input %d (%d B) flipped at %d: %s", i, len(src), j, d)
			}
		}
	}
}

// FuzzCompressMatchesReference checks, for arbitrary bytes, that Compress
// writes the reference stream, and, reading the same bytes as a stream,
// that Decompress gives the reference's result.
func FuzzCompressMatchesReference(f *testing.F) {
	for _, src := range corpus(f) {
		if len(src) <= 4096 {
			enc := lzr.Compress(src)
			f.Add(src)
			f.Add(enc)
			f.Add(enc[:len(enc)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if enc, want := lzr.Compress(data), compressReference(data); !bytes.Equal(enc, want) {
			t.Fatalf("Compress of %d bytes differs from the reference", len(data))
		}
		if d := sameResult(data); d != "" {
			t.Fatalf("Decompress of %d bytes: %s", len(data), d)
		}
	})
}

// TestDecompressRejectsEveryPrefix cuts valid pose, foveal-mesh and
// random streams at every length short of their own: each cut is
// ErrCorrupt. The decoder reads exactly the bytes the encoder wrote, so
// a strict prefix always runs out of input, and the last symbol is no
// exception. Cutting the 9.6 kB foveal stream everywhere decodes ≈46 MB,
// so -short cuts it only within its last 64 bytes and at every 61st.
func TestDecompressRejectsEveryPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 400)
	rng.Read(random)
	pose := body.Talking(nil).At(0.3)
	for _, src := range [][]byte{
		pose.Marshal(), pose.MarshalCompact(), fovealBuffer(t), random, {}, []byte("a"),
	} {
		enc := lzr.Compress(src)
		for cut := 0; cut < len(enc); cut++ {
			if testing.Short() && cut < len(enc)-64 && cut%61 != 0 {
				continue
			}
			if out, err := lzr.Decompress(enc[:cut]); !errors.Is(err, lzr.ErrCorrupt) {
				t.Fatalf("%d-byte input: stream cut to %d of %d bytes gave %d bytes, err %v; want ErrCorrupt",
					len(src), cut, len(enc), len(out), err)
			}
		}
	}
}

// sink keeps the benchmarks' results live.
var sink []byte

func BenchmarkCompressPose(b *testing.B) {
	src := body.Talking(nil).At(0.3).Marshal()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = lzr.Compress(src)
	}
}

func BenchmarkCompressFoveal(b *testing.B) {
	src := fovealBuffer(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = lzr.Compress(src)
	}
}

func BenchmarkDecompressFoveal(b *testing.B) {
	src := fovealBuffer(b)
	enc := lzr.Compress(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := lzr.Decompress(enc)
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}
