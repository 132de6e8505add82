package avatar

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"semholo/internal/body"
	"semholo/internal/mesh"
)

// hashMeshes folds every vertex coordinate's bits and every face index of
// ms, in order, into one FNV-1a digest.
func hashMeshes(ms []*mesh.Mesh) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range ms {
		put(uint64(len(m.Vertices)))
		for _, v := range m.Vertices {
			put(math.Float64bits(v.X))
			put(math.Float64bits(v.Y))
			put(math.Float64bits(v.Z))
		}
		put(uint64(len(m.Faces)))
		for _, f := range m.Faces {
			put(uint64(f.A))
			put(uint64(f.B))
			put(uint64(f.C))
		}
	}
	return h.Sum64()
}

// TestReconstructGoldenHash pins Reconstruct's output bit for bit: the
// digest of 20 frames of the talking motion at 30 fps, extracted by one
// reused Reconstructor, must equal the digest recorded before the
// extractor lost its warm-start path. Any change to the lattice, the
// field, the band discovery or the polygonization order shows up here.
func TestReconstructGoldenHash(t *testing.T) {
	golden := map[int]uint64{
		32: 0x035618387745110c,
		64: 0xdadb87df41475b60,
	}
	frames := motionFrames(body.Talking(nil), 20, 1.0/30)
	for _, res := range []int{32, 64} {
		rec := &Reconstructor{Model: fitModel, Resolution: res}
		ms := make([]*mesh.Mesh, len(frames))
		for i, p := range frames {
			ms[i] = rec.Reconstruct(p)
		}
		if got := hashMeshes(ms); got != golden[res] {
			t.Errorf("res %d: Reconstruct digest %#x, want %#x", res, got, golden[res])
		}
	}
}

// TestSkinGoldenHash pins Skin's output bit for bit: the digest of 20
// frames of the talking motion posed from one reused Reconstructor's
// canonical surface. It covers the canonical pass (a narrow-band
// extraction at the rest pose) and BindWeights as well as the skinning.
func TestSkinGoldenHash(t *testing.T) {
	golden := map[int]uint64{
		32: 0x6aa951f6271e463f,
		64: 0x4f621d019ebd922d,
	}
	frames := motionFrames(body.Talking(nil), 20, 1.0/30)
	for _, res := range []int{32, 64} {
		rec := &Reconstructor{Model: fitModel, Resolution: res}
		ms := make([]*mesh.Mesh, len(frames))
		for i, p := range frames {
			ms[i] = rec.Skin(p)
		}
		if got := hashMeshes(ms); got != golden[res] {
			t.Errorf("res %d: Skin digest %#x, want %#x", res, got, golden[res])
		}
	}
}

// TestDenseReconstructGoldenHash pins the full-grid extractor on the
// capsule field (extractDense): 5 talking frames at res 32 must hash to
// the recorded digest.
func TestDenseReconstructGoldenHash(t *testing.T) {
	const golden uint64 = 0x5117856608d5c121
	frames := motionFrames(body.Talking(nil), 5, 1.0/30)
	rec := &Reconstructor{Model: fitModel, Resolution: 32}
	ms := make([]*mesh.Mesh, len(frames))
	for i, p := range frames {
		ms[i], _ = extractDense(rec, p)
	}
	if got := hashMeshes(ms); got != golden {
		t.Errorf("dense extraction digest %#x, want %#x", got, golden)
	}
}
