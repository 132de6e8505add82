package mesh

import (
	"bytes"
	"testing"

	"semholo/internal/geom"
)

// TestOBJRoundTrip pins WriteOBJ's text: v, vn and vt records in that
// order, then 1-based triangle faces.
func TestOBJRoundTrip(t *testing.T) {
	m := &Mesh{
		Vertices: []geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1.5, Z: -0.25}},
		Normals:  []geom.Vec3{{X: 0, Y: 0, Z: 1}, {X: 0, Y: 0, Z: 1}, {X: 0, Y: 0, Z: 1}},
		UVs:      []geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 0.5}},
		Faces:    []Face{{0, 1, 2}},
	}
	var buf bytes.Buffer
	if err := WriteOBJ(&buf, m); err != nil {
		t.Fatal(err)
	}
	const want = "v 0 0 0\nv 1 0 0\nv 0 1.5 -0.25\n" +
		"vn 0 0 1\nvn 0 0 1\nvn 0 0 1\n" +
		"vt 0 0\nvt 1 0\nvt 0 0.5\n" +
		"f 1 2 3\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteOBJ wrote\n%s\nwant\n%s", got, want)
	}
}
