package dracogo

import (
	"reflect"
	"testing"

	"semholo/internal/geom"
	"semholo/internal/mesh"
)

func TestMeshRoundTripGeometry(t *testing.T) {
	m := mesh.UnitSphere(3)
	enc := EncodeMesh(m, Options{PositionBits: 14})
	dec, err := DecodeMesh(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Vertices) != len(m.Vertices) || len(dec.Faces) != len(m.Faces) {
		t.Fatalf("sizes: %d/%d verts %d/%d faces",
			len(dec.Vertices), len(m.Vertices), len(dec.Faces), len(m.Faces))
	}
	if err := dec.Validate(); err != nil {
		t.Fatalf("decoded mesh invalid: %v", err)
	}
	// Quantization error bounded by one cell: extent 2.0 over 2^14 levels.
	maxErr := 2.0 / float64(1<<14) * 2
	for i := range m.Vertices {
		if d := dec.Vertices[i].Dist(m.Vertices[i]); d > maxErr {
			t.Fatalf("vertex %d error %v > %v", i, d, maxErr)
		}
	}
	// Connectivity exact.
	for i := range m.Faces {
		if dec.Faces[i] != m.Faces[i] {
			t.Fatalf("face %d changed", i)
		}
	}
	if len(dec.Normals) != len(m.Normals) {
		t.Fatalf("normals lost: %d vs %d", len(dec.Normals), len(m.Normals))
	}
	for i := range m.Normals {
		if dec.Normals[i].Dot(m.Normals[i]) < 0.98 {
			t.Fatalf("normal %d deviates: %v vs %v", i, dec.Normals[i], m.Normals[i])
		}
	}
}

func TestMeshCompressionRatio(t *testing.T) {
	m := mesh.UnitSphere(4) // 2562 verts, 5120 faces
	// Raw size counts everything the codec carries: positions and
	// normals as float64 triples plus int32 face indices.
	raw := len(m.Vertices)*24 + len(m.Normals)*24 + len(m.Faces)*12
	enc := EncodeMesh(m, Options{})
	ratio := float64(raw) / float64(len(enc))
	// The paper's Draco baseline achieves ~9.4×; ours must be in the
	// same regime on smooth geometry.
	if ratio < 5 {
		t.Errorf("compression ratio %.1f, want ≥ 5 (raw %d, enc %d)", ratio, raw, len(enc))
	}
}

func TestMeshQuantizationControlsError(t *testing.T) {
	m := mesh.UnitSphere(2)
	errAt := func(bits int) float64 {
		dec, err := DecodeMesh(EncodeMesh(m, Options{PositionBits: bits}))
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range m.Vertices {
			if d := dec.Vertices[i].Dist(m.Vertices[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	if e8, e16 := errAt(8), errAt(16); e16 >= e8 {
		t.Errorf("error did not shrink with bits: 8→%v 16→%v", e8, e16)
	}
}

func TestMeshWithUVs(t *testing.T) {
	m := mesh.UnitSphere(1)
	m.UVs = make([]geom.Vec2, len(m.Vertices))
	for i, v := range m.Vertices {
		m.UVs[i] = geom.V2((v.X+1)/2, (v.Y+1)/2)
	}
	dec, err := DecodeMesh(EncodeMesh(m, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.UVs) != len(m.UVs) {
		t.Fatalf("UVs lost")
	}
	for i := range m.UVs {
		if dec.UVs[i].Dist(m.UVs[i]) > 1e-3 {
			t.Fatalf("UV %d error %v", i, dec.UVs[i].Dist(m.UVs[i]))
		}
	}
}

func TestEmptyMesh(t *testing.T) {
	dec, err := DecodeMesh(EncodeMesh(&mesh.Mesh{}, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Vertices) != 0 || len(dec.Faces) != 0 {
		t.Error("empty mesh round trip not empty")
	}
}

func TestMeshDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeMesh([]byte("not a stream")); err == nil {
		t.Error("garbage accepted")
	}
	enc := EncodeMesh(mesh.UnitSphere(1), Options{})
	if _, err := DecodeMesh(enc[:len(enc)/2]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func BenchmarkEncodeMesh(b *testing.B) {
	m := mesh.UnitSphere(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeMesh(m, Options{})
	}
}

func BenchmarkDecodeMesh(b *testing.B) {
	enc := EncodeMesh(mesh.UnitSphere(4), Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMesh(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeMeshIntoReuse decodes streams with and without normals and
// UVs, large then small then empty, into one mesh: each result equals a
// fresh DecodeMesh, and a stream that fits reuses the arrays.
func TestDecodeMeshIntoReuse(t *testing.T) {
	uv := mesh.UnitSphere(2)
	uv.Normals = nil
	uv.UVs = make([]geom.Vec2, len(uv.Vertices))
	for i, v := range uv.Vertices {
		uv.UVs[i] = geom.V2(0.5+0.5*v.X, 0.5+0.5*v.Y)
	}
	var dst mesh.Mesh
	for i, m := range []*mesh.Mesh{mesh.UnitSphere(3), uv, mesh.UnitSphere(1), {}, mesh.UnitSphere(2)} {
		enc := EncodeMesh(m, Options{})
		want, err := DecodeMesh(enc)
		if err != nil {
			t.Fatal(err)
		}
		prev := dst.Vertices
		if err := DecodeMeshInto(&dst, enc); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&dst, want) {
			t.Fatalf("stream %d: DecodeMeshInto differs from DecodeMesh", i)
		}
		if i > 0 && len(dst.Vertices) > 0 && &dst.Vertices[0] != &prev[:1][0] {
			t.Fatalf("stream %d: %d vertices fit in %d but the array was replaced", i, len(dst.Vertices), cap(prev))
		}
	}
}
