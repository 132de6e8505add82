package body

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"semholo/internal/geom"
)

// NumShape is the number of shape (beta) coefficients, and NumExpression
// the number of facial expression coefficients — matching SMPL-X's
// 10-/10-coefficient default with a few extra shape PCs.
const (
	NumShape      = 16
	NumExpression = 10
)

// Params is one frame of body state: the exact payload keypoint-based
// semantic communication puts on the wire ("3D pose aligned with SMPL-X",
// §4.2). It has two self-contained encodings, told apart by their magic
// bytes so UnmarshalParams reads either without a wire flag: Marshal's
// float64 frame ("BP", MarshaledSize bytes — the ~1.9 KB-per-frame
// representation measured in Table 2) and MarshalCompact's quantised
// frame ("BQ", CompactSize bytes — the semantic ladder's rung 0), which
// falls back to Marshal's frame whenever a value does not fit its
// integer range.
type Params struct {
	// Pose holds one axis-angle rotation vector per joint, relative to
	// the parent bone.
	Pose [NumJoints]geom.Vec3
	// Translation places the pelvis root in world space.
	Translation geom.Vec3
	// Shape holds the body shape coefficients (identity; static across a
	// session).
	Shape [NumShape]float64
	// Expression holds facial expression coefficients. Expression[0] is
	// jaw opening, Expression[1] mouth corner lift (smile/pout),
	// Expression[2] brow raise; the rest perturb the face region.
	Expression [NumExpression]float64
}

// paramsMagic precedes every marshaled frame.
var paramsMagic = [2]byte{'B', 'P'}

// MarshaledSize is the exact wire size of one marshaled Params frame.
const MarshaledSize = 2 + // magic
	NumJoints*3*8 + // pose
	3*8 + // translation
	NumShape*8 +
	NumExpression*8

// Marshal encodes p into a fixed-size binary frame (little-endian
// float64s). The raw size is deliberately comparable to the paper's
// measured 1.91 KB/frame SMPL-X payload.
func (p *Params) Marshal() []byte {
	buf := make([]byte, 0, MarshaledSize)
	buf = append(buf, paramsMagic[0], paramsMagic[1])
	putF := func(f float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	for j := 0; j < NumJoints; j++ {
		putF(p.Pose[j].X)
		putF(p.Pose[j].Y)
		putF(p.Pose[j].Z)
	}
	putF(p.Translation.X)
	putF(p.Translation.Y)
	putF(p.Translation.Z)
	for _, s := range p.Shape {
		putF(s)
	}
	for _, e := range p.Expression {
		putF(e)
	}
	return buf
}

// compactMagic precedes every quantised frame.
var compactMagic = [2]byte{'B', 'Q'}

// CompactSize is the exact wire size of one quantised Params frame.
const CompactSize = 2 + // magic
	NumJoints*3*2 + // pose, int16
	3*4 + // translation, int32
	(NumShape+NumExpression)*2 // coefficients, int16

// compactStep is the compact frame's quantisation step for every value:
// 1e-4 rad for rotation-vector components, 1e-4 m (0.1 mm) for the
// translation, 1e-4 for the shape and expression coefficients. Rounding
// to the nearest step bounds each value's error at half a step.
const compactStep = 1e-4

// MarshalCompact encodes p as the quantised "BQ" frame — every
// rotation-vector component as an int16 at 1e-4 rad, the translation as
// three int32 at 0.1 mm, the shape and expression coefficients as int16
// at 1e-4, little-endian — CompactSize bytes where Marshal needs
// MarshaledSize. The frame is self-contained, like Marshal's. When any
// value (including a NaN) falls outside its integer range, the frame is
// Marshal's instead: the fallback is lossless and chosen per frame, and
// UnmarshalParams tells the two apart by magic.
func (p *Params) MarshalCompact() []byte {
	buf := make([]byte, 2, CompactSize)
	copy(buf, compactMagic[:])
	fits := true
	put := func(f float64, bits int) {
		q := math.Round(f / compactStep)
		if lim := math.Ldexp(1, bits-1); !(q >= -lim && q < lim) {
			fits = false
			return
		}
		if bits == 16 {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(q)))
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(q)))
		}
	}
	for _, r := range p.Pose {
		put(r.X, 16)
		put(r.Y, 16)
		put(r.Z, 16)
	}
	put(p.Translation.X, 32)
	put(p.Translation.Y, 32)
	put(p.Translation.Z, 32)
	for _, s := range p.Shape {
		put(s, 16)
	}
	for _, e := range p.Expression {
		put(e, 16)
	}
	if !fits {
		return p.Marshal()
	}
	return buf
}

// unmarshalCompact decodes a MarshalCompact frame. Every integer maps to
// a finite value, so beyond its size the frame needs no validation.
func unmarshalCompact(data []byte) (*Params, error) {
	if len(data) != CompactSize {
		return nil, fmt.Errorf("%w: compact size %d, want %d", ErrBadFrame, len(data), CompactSize)
	}
	pos := 2
	get16 := func() float64 {
		q := int16(binary.LittleEndian.Uint16(data[pos:]))
		pos += 2
		return float64(q) * compactStep
	}
	get32 := func() float64 {
		q := int32(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		return float64(q) * compactStep
	}
	p := &Params{}
	for j := range p.Pose {
		p.Pose[j] = geom.V3(get16(), get16(), get16())
	}
	p.Translation = geom.V3(get32(), get32(), get32())
	for i := range p.Shape {
		p.Shape[i] = get16()
	}
	for i := range p.Expression {
		p.Expression[i] = get16()
	}
	return p, nil
}

// ErrBadFrame is returned by Unmarshal for malformed frames.
var ErrBadFrame = errors.New("body: malformed params frame")

// UnmarshalParams decodes a frame produced by Marshal or MarshalCompact,
// dispatching on its magic.
func UnmarshalParams(data []byte) (*Params, error) {
	if len(data) >= 2 && data[0] == compactMagic[0] && data[1] == compactMagic[1] {
		return unmarshalCompact(data)
	}
	if len(data) != MarshaledSize {
		return nil, fmt.Errorf("%w: size %d, want %d", ErrBadFrame, len(data), MarshaledSize)
	}
	if data[0] != paramsMagic[0] || data[1] != paramsMagic[1] {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	pos := 2
	getF := func() float64 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
		return f
	}
	p := &Params{}
	for j := 0; j < NumJoints; j++ {
		p.Pose[j] = geom.V3(getF(), getF(), getF())
	}
	p.Translation = geom.V3(getF(), getF(), getF())
	for i := range p.Shape {
		p.Shape[i] = getF()
	}
	for i := range p.Expression {
		p.Expression[i] = getF()
	}
	for j := 0; j < NumJoints; j++ {
		if !p.Pose[j].IsFinite() {
			return nil, fmt.Errorf("%w: non-finite pose for joint %s", ErrBadFrame, Joint(j).Name())
		}
	}
	if !p.Translation.IsFinite() {
		return nil, fmt.Errorf("%w: non-finite translation", ErrBadFrame)
	}
	return p, nil
}

// Lerp interpolates between two parameter frames: poses through
// quaternion slerp (valid for the axis-angle parameterization where plain
// linear blending is not), everything else linearly. Used by the jitter
// buffer to conceal late frames and by motion generators.
func (p *Params) Lerp(q *Params, t float64) *Params {
	out := &Params{}
	for j := 0; j < NumJoints; j++ {
		qa := geom.QuatFromRotationVector(p.Pose[j])
		qb := geom.QuatFromRotationVector(q.Pose[j])
		out.Pose[j] = qa.Slerp(qb, t).RotationVector()
	}
	out.Translation = p.Translation.Lerp(q.Translation, t)
	for i := range p.Shape {
		out.Shape[i] = p.Shape[i] + (q.Shape[i]-p.Shape[i])*t
	}
	for i := range p.Expression {
		out.Expression[i] = p.Expression[i] + (q.Expression[i]-p.Expression[i])*t
	}
	return out
}

// Distance returns a scalar pose dissimilarity: mean geodesic rotation
// angle across joints plus translation distance. Used as a reconstruction
// fidelity metric for the keypoint pipeline.
func (p *Params) Distance(q *Params) float64 {
	var sum float64
	for j := 0; j < NumJoints; j++ {
		qa := geom.QuatFromRotationVector(p.Pose[j])
		qb := geom.QuatFromRotationVector(q.Pose[j])
		d := math.Abs(qa.Dot(qb))
		sum += 2 * math.Acos(geom.Clamp(d, 0, 1))
	}
	return sum/float64(NumJoints) + p.Translation.Dist(q.Translation)
}
