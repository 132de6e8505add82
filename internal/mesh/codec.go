package mesh

import (
	"bufio"
	"fmt"
	"io"
)

// WriteOBJ serializes the mesh in Wavefront OBJ text format (a strict
// subset: v/vn/vt/f records). This is the interchange format
// semholo-receiver dumps reconstructions in for inspection; the *wire*
// encoding is the binary codec in internal/compress/dracogo.
func WriteOBJ(w io.Writer, m *Mesh) error {
	bw := bufio.NewWriter(w)
	for _, v := range m.Vertices {
		if _, err := fmt.Fprintf(bw, "v %g %g %g\n", v.X, v.Y, v.Z); err != nil {
			return err
		}
	}
	for _, n := range m.Normals {
		if _, err := fmt.Fprintf(bw, "vn %g %g %g\n", n.X, n.Y, n.Z); err != nil {
			return err
		}
	}
	for _, uv := range m.UVs {
		if _, err := fmt.Fprintf(bw, "vt %g %g\n", uv.X, uv.Y); err != nil {
			return err
		}
	}
	for _, f := range m.Faces {
		if _, err := fmt.Fprintf(bw, "f %d %d %d\n", f.A+1, f.B+1, f.C+1); err != nil {
			return err
		}
	}
	return bw.Flush()
}
