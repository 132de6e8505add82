package dracogo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"semholo/internal/body"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
)

// fovealCorpus is ten frames of the talking body cut to the hybrid
// rung's foveal region around the face: the meshes the rung-2 encoder
// ships.
func fovealCorpus() []*mesh.Mesh {
	model := body.NewModel(nil, body.ModelOptions{Detail: 1})
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	anchor := geom.V3(0, 1.5, 0.1)
	talk := body.Talking(nil)
	var out []*mesh.Mesh
	for i := 0; i < 10; i++ {
		m := model.Mesh(talk.At(float64(i) / 30))
		centroids := make([]geom.Vec3, len(m.Faces))
		for fi := range m.Faces {
			centroids[fi] = m.FaceCentroid(fi)
		}
		foveal, _ := sel.SplitMesh(centroids, anchor)
		sub := &mesh.Mesh{Vertices: append([]geom.Vec3(nil), m.Vertices...)}
		for _, fi := range foveal {
			sub.Faces = append(sub.Faces, m.Faces[fi])
		}
		sub.CompactVertices()
		out = append(out, sub)
	}
	return out
}

// TestEncodeMeshGoldenDigest pins EncodeMesh's streams byte for byte: a
// SHA-256 over the encodings of foveal submeshes, spheres with normals
// and with UVs at several quantisations, and the empty mesh. The digest
// was recorded before EncodeMesh moved its raw stream into pooled
// scratch.
func TestEncodeMeshGoldenDigest(t *testing.T) {
	const golden = "a5c109429ee3256c55c8abd8d238eab1c5e7c850d2b163dbf58d70e2adc1d45f"
	type item struct {
		m   *mesh.Mesh
		opt Options
	}
	var corpus []item
	for i, m := range fovealCorpus() {
		if len(m.Faces) == 0 {
			t.Fatalf("foveal frame %d has no faces", i)
		}
		corpus = append(corpus, item{m, Options{PositionBits: 14}})
	}
	uv := mesh.UnitSphere(3)
	uv.UVs = make([]geom.Vec2, len(uv.Vertices))
	for i, v := range uv.Vertices {
		uv.UVs[i] = geom.V2(0.5+0.5*v.X, 0.5+0.5*v.Y)
	}
	corpus = append(corpus,
		item{mesh.UnitSphere(3), Options{}},
		item{mesh.UnitSphere(4), Options{PositionBits: 10, NormalBits: 6}},
		item{uv, Options{UVBits: 10}},
		item{&mesh.Mesh{}, Options{}},
	)
	h := sha256.New()
	var n [8]byte
	for _, it := range corpus {
		enc := EncodeMesh(it.m, it.opt)
		binary.LittleEndian.PutUint64(n[:], uint64(len(enc)))
		h.Write(n[:])
		h.Write(enc)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("EncodeMesh corpus digest %s, want %s", got, golden)
	}
}
