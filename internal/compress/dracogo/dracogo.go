// Package dracogo implements a Draco-style lossy mesh codec: attribute
// quantization over the bounding box, delta prediction, variable-length
// integer packing, and a final entropy-coding pass with the lzr range
// coder. It is the stand-in for Google Draco, which the
// paper uses to compress the traditional untextured mesh baseline
// (§4.2, Table 2: 397.7 KB → 42.1 KB per frame).
package dracogo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"semholo/internal/compress/lzr"
	"semholo/internal/geom"
	"semholo/internal/mesh"
)

// ErrCorrupt is returned for malformed streams.
var ErrCorrupt = errors.New("dracogo: corrupt stream")

const (
	meshMagic = "DGM1"

	flagNormals = 1 << 0
	flagUVs     = 1 << 1

	// minElementBytes is the fewest payload bytes a vertex or face can
	// take: three varints.
	minElementBytes = 3
)

// Options controls quantization fidelity.
type Options struct {
	// PositionBits is the per-axis position quantization (default 14,
	// Draco's default). Valid range 1..30.
	PositionBits int
	// NormalBits quantizes normal components (default 8).
	NormalBits int
	// UVBits quantizes texture coordinates (default 12).
	UVBits int
}

func (o Options) withDefaults() Options {
	if o.PositionBits <= 0 {
		o.PositionBits = 14
	}
	if o.PositionBits > 30 {
		o.PositionBits = 30
	}
	if o.NormalBits <= 0 {
		o.NormalBits = 8
	}
	if o.UVBits <= 0 {
		o.UVBits = 12
	}
	return o
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

type quantizer struct {
	min  geom.Vec3
	inv  geom.Vec3 // levels/extent per axis
	step geom.Vec3 // extent/levels per axis
}

func newQuantizer(b geom.AABB, bits int) quantizer {
	levels := float64(int64(1)<<uint(bits) - 1)
	size := b.Size()
	q := quantizer{min: b.Min}
	axis := func(ext float64) (inv, step float64) {
		if ext <= 0 {
			return 0, 0
		}
		return levels / ext, ext / levels
	}
	q.inv.X, q.step.X = axis(size.X)
	q.inv.Y, q.step.Y = axis(size.Y)
	q.inv.Z, q.step.Z = axis(size.Z)
	return q
}

func (q quantizer) quantize(p geom.Vec3) (x, y, z int64) {
	d := p.Sub(q.min)
	return int64(d.X*q.inv.X + 0.5), int64(d.Y*q.inv.Y + 0.5), int64(d.Z*q.inv.Z + 0.5)
}

func (q quantizer) dequantize(x, y, z int64) geom.Vec3 {
	return geom.Vec3{
		X: q.min.X + float64(x)*q.step.X,
		Y: q.min.Y + float64(y)*q.step.Y,
		Z: q.min.Z + float64(z)*q.step.Z,
	}
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func readFloat(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("%w: short float", ErrCorrupt)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, buf[n:], nil
}

// rawPool recycles EncodeMesh's uncompressed stream, which lives only
// until lzr has coded it.
var rawPool = sync.Pool{New: func() any { return new([]byte) }}

// EncodeMesh compresses m. Vertex positions are quantized; normals and
// UVs, when present, travel quantized as well. Face connectivity is
// delta-coded against the previous face. The uncompressed stream is
// built in pooled scratch, so the returned exact-size payload is the
// only allocation once the pool is warm.
func EncodeMesh(m *mesh.Mesh, opt Options) []byte {
	opt = opt.withDefaults()
	scratch := rawPool.Get().(*[]byte)
	defer rawPool.Put(scratch)
	buf := append((*scratch)[:0], meshMagic...)
	var flags byte
	if m.Normals != nil {
		flags |= flagNormals
	}
	if m.UVs != nil {
		flags |= flagUVs
	}
	buf = append(buf, flags, byte(opt.PositionBits), byte(opt.NormalBits), byte(opt.UVBits))
	buf = binary.AppendUvarint(buf, uint64(len(m.Vertices)))
	buf = binary.AppendUvarint(buf, uint64(len(m.Faces)))

	b := m.Bounds()
	if b.IsEmpty() {
		b = geom.AABB{}
	}
	for _, f := range []float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z} {
		buf = appendFloat(buf, f)
	}

	q := newQuantizer(b, opt.PositionBits)
	var px, py, pz int64
	for _, v := range m.Vertices {
		x, y, z := q.quantize(v)
		buf = binary.AppendUvarint(buf, zigzag(x-px))
		buf = binary.AppendUvarint(buf, zigzag(y-py))
		buf = binary.AppendUvarint(buf, zigzag(z-pz))
		px, py, pz = x, y, z
	}

	if m.Normals != nil {
		scale := float64(int64(1)<<uint(opt.NormalBits-1) - 1)
		var nx, ny, nz int64
		for _, n := range m.Normals {
			x := int64(n.X * scale)
			y := int64(n.Y * scale)
			z := int64(n.Z * scale)
			buf = binary.AppendUvarint(buf, zigzag(x-nx))
			buf = binary.AppendUvarint(buf, zigzag(y-ny))
			buf = binary.AppendUvarint(buf, zigzag(z-nz))
			nx, ny, nz = x, y, z
		}
	}
	if m.UVs != nil {
		scale := float64(int64(1)<<uint(opt.UVBits) - 1)
		var ux, uy int64
		for _, uv := range m.UVs {
			x := int64(geom.Clamp(uv.X, 0, 1) * scale)
			y := int64(geom.Clamp(uv.Y, 0, 1) * scale)
			buf = binary.AppendUvarint(buf, zigzag(x-ux))
			buf = binary.AppendUvarint(buf, zigzag(y-uy))
			ux, uy = x, y
		}
	}

	var pa int64
	for _, f := range m.Faces {
		buf = binary.AppendUvarint(buf, zigzag(int64(f.A)-pa))
		buf = binary.AppendUvarint(buf, zigzag(int64(f.B)-int64(f.A)))
		buf = binary.AppendUvarint(buf, zigzag(int64(f.C)-int64(f.A)))
		pa = int64(f.A)
	}
	*scratch = buf
	return lzr.Compress(buf)
}

// DecodeMesh reverses EncodeMesh. The result is lossy: positions are
// reconstructed to quantization precision.
func DecodeMesh(data []byte) (*mesh.Mesh, error) {
	m := new(mesh.Mesh)
	if err := DecodeMeshInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeMeshInto is DecodeMesh decoding into m, whose arrays are reused
// when long enough and replaced by exact-size ones otherwise, so a
// decoder that only reads each mesh before the next can keep one across
// frames. Attributes the stream lacks are set to nil. Counts are checked
// against the payload before anything is sized, as in DecodeMesh; on
// error m holds no usable mesh.
func DecodeMeshInto(m *mesh.Mesh, data []byte) error {
	raw, err := lzr.Decompress(data)
	if err != nil {
		return fmt.Errorf("dracogo: %w", err)
	}
	if len(raw) < 8 || string(raw[:4]) != meshMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	flags := raw[4]
	posBits, normBits, uvBits := int(raw[5]), int(raw[6]), int(raw[7])
	if posBits < 1 || posBits > 30 {
		return fmt.Errorf("%w: position bits %d", ErrCorrupt, posBits)
	}
	buf := raw[8:]

	nv, buf, err := readUvarint(buf)
	if err != nil {
		return err
	}
	nf, buf, err := readUvarint(buf)
	if err != nil {
		return err
	}
	if nv > 1<<28 || nf > 1<<28 {
		return fmt.Errorf("%w: implausible sizes %d/%d", ErrCorrupt, nv, nf)
	}
	// Every vertex and face takes at least three varint bytes, so a
	// declared count the payload cannot hold is refused before it sizes
	// an allocation.
	if nv+nf > uint64(len(buf))/minElementBytes {
		return fmt.Errorf("%w: %d vertices and %d faces in %d bytes", ErrCorrupt, nv, nf, len(buf))
	}
	var bounds [6]float64
	for i := range bounds {
		bounds[i], buf, err = readFloat(buf)
		if err != nil {
			return err
		}
	}
	b := geom.AABB{
		Min: geom.V3(bounds[0], bounds[1], bounds[2]),
		Max: geom.V3(bounds[3], bounds[4], bounds[5]),
	}
	q := newQuantizer(b, posBits)

	m.Vertices, m.Faces = resize(m.Vertices, nv), resize(m.Faces, nf)
	var px, py, pz int64
	for i := uint64(0); i < nv; i++ {
		var dx, dy, dz uint64
		if dx, buf, err = readUvarint(buf); err != nil {
			return err
		}
		if dy, buf, err = readUvarint(buf); err != nil {
			return err
		}
		if dz, buf, err = readUvarint(buf); err != nil {
			return err
		}
		px += unzigzag(dx)
		py += unzigzag(dy)
		pz += unzigzag(dz)
		m.Vertices[i] = q.dequantize(px, py, pz)
	}

	if flags&flagNormals == 0 {
		m.Normals = nil
	} else {
		scale := float64(int64(1)<<uint(normBits-1) - 1)
		if scale <= 0 {
			return fmt.Errorf("%w: normal bits %d", ErrCorrupt, normBits)
		}
		m.Normals = resize(m.Normals, nv)
		var nx, ny, nz int64
		for i := uint64(0); i < nv; i++ {
			var dx, dy, dz uint64
			if dx, buf, err = readUvarint(buf); err != nil {
				return err
			}
			if dy, buf, err = readUvarint(buf); err != nil {
				return err
			}
			if dz, buf, err = readUvarint(buf); err != nil {
				return err
			}
			nx += unzigzag(dx)
			ny += unzigzag(dy)
			nz += unzigzag(dz)
			m.Normals[i] = geom.V3(float64(nx)/scale, float64(ny)/scale, float64(nz)/scale).Normalize()
		}
	}
	if flags&flagUVs == 0 {
		m.UVs = nil
	} else {
		scale := float64(int64(1)<<uint(uvBits) - 1)
		if scale <= 0 {
			return fmt.Errorf("%w: uv bits %d", ErrCorrupt, uvBits)
		}
		m.UVs = resize(m.UVs, nv)
		var ux, uy int64
		for i := uint64(0); i < nv; i++ {
			var dx, dy uint64
			if dx, buf, err = readUvarint(buf); err != nil {
				return err
			}
			if dy, buf, err = readUvarint(buf); err != nil {
				return err
			}
			ux += unzigzag(dx)
			uy += unzigzag(dy)
			m.UVs[i] = geom.V2(float64(ux)/scale, float64(uy)/scale)
		}
	}

	var pa int64
	for i := uint64(0); i < nf; i++ {
		var da, db, dc uint64
		if da, buf, err = readUvarint(buf); err != nil {
			return err
		}
		if db, buf, err = readUvarint(buf); err != nil {
			return err
		}
		if dc, buf, err = readUvarint(buf); err != nil {
			return err
		}
		a := pa + unzigzag(da)
		bidx := a + unzigzag(db)
		cidx := a + unzigzag(dc)
		if a < 0 || bidx < 0 || cidx < 0 || uint64(a) >= nv || uint64(bidx) >= nv || uint64(cidx) >= nv {
			return fmt.Errorf("%w: face %d out of range", ErrCorrupt, i)
		}
		m.Faces[i] = mesh.Face{A: int(a), B: int(bidx), C: int(cidx)}
		pa = a
	}
	return nil
}

// resize returns s resliced to n elements when its capacity allows, and
// a fresh exact-size slice otherwise (also for a nil s, so a fresh mesh
// never carries nil arrays). n is bounded by the payload.
func resize[T any](s []T, n uint64) []T {
	if s == nil || uint64(cap(s)) < n {
		return make([]T, n)
	}
	return s[:n]
}
