package geom

import "math"

// Mat3 is a row-major 3×3 matrix. Index as M[row*3+col].
type Mat3 [9]float64

// Identity3 returns the 3×3 identity matrix.
func Identity3() Mat3 {
	return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// MulVec applies m to v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

// Mul returns the matrix product m × o.
func (m Mat3) Mul(o Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += m[i*3+k] * o[k*3+j]
			}
			r[i*3+j] = s
		}
	}
	return r
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	return Mat3{
		m[0], m[3], m[6],
		m[1], m[4], m[7],
		m[2], m[5], m[8],
	}
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0]*(m[4]*m[8]-m[5]*m[7]) -
		m[1]*(m[3]*m[8]-m[5]*m[6]) +
		m[2]*(m[3]*m[7]-m[4]*m[6])
}

// Inverse returns m⁻¹ and whether the matrix was invertible.
func (m Mat3) Inverse() (Mat3, bool) {
	d := m.Det()
	if math.Abs(d) < 1e-300 {
		return Identity3(), false
	}
	inv := 1 / d
	return Mat3{
		(m[4]*m[8] - m[5]*m[7]) * inv,
		(m[2]*m[7] - m[1]*m[8]) * inv,
		(m[1]*m[5] - m[2]*m[4]) * inv,
		(m[5]*m[6] - m[3]*m[8]) * inv,
		(m[0]*m[8] - m[2]*m[6]) * inv,
		(m[2]*m[3] - m[0]*m[5]) * inv,
		(m[3]*m[7] - m[4]*m[6]) * inv,
		(m[1]*m[6] - m[0]*m[7]) * inv,
		(m[0]*m[4] - m[1]*m[3]) * inv,
	}, true
}

// Mat4 is a row-major 4×4 matrix. Index as M[row*4+col].
type Mat4 [16]float64

// Identity4 returns the 4×4 identity matrix.
func Identity4() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Translation returns the matrix translating by t.
func Translation(t Vec3) Mat4 {
	return Mat4{
		1, 0, 0, t.X,
		0, 1, 0, t.Y,
		0, 0, 1, t.Z,
		0, 0, 0, 1,
	}
}

// Scaling returns the matrix scaling by s per axis.
func Scaling(s Vec3) Mat4 {
	return Mat4{
		s.X, 0, 0, 0,
		0, s.Y, 0, 0,
		0, 0, s.Z, 0,
		0, 0, 0, 1,
	}
}

// FromMat3 embeds a rotation/linear part into a 4×4 transform with zero
// translation.
func FromMat3(r Mat3) Mat4 {
	return Mat4{
		r[0], r[1], r[2], 0,
		r[3], r[4], r[5], 0,
		r[6], r[7], r[8], 0,
		0, 0, 0, 1,
	}
}

// RigidTransform builds the 4×4 matrix applying rotation r then
// translation t (i.e. p' = R p + t).
func RigidTransform(r Mat3, t Vec3) Mat4 {
	return Mat4{
		r[0], r[1], r[2], t.X,
		r[3], r[4], r[5], t.Y,
		r[6], r[7], r[8], t.Z,
		0, 0, 0, 1,
	}
}

// Mat3 extracts the upper-left 3×3 linear part.
func (m Mat4) Mat3() Mat3 {
	return Mat3{
		m[0], m[1], m[2],
		m[4], m[5], m[6],
		m[8], m[9], m[10],
	}
}

// TranslationPart extracts the translation column.
func (m Mat4) TranslationPart() Vec3 { return Vec3{m[3], m[7], m[11]} }

// Mul returns the matrix product m × o.
func (m Mat4) Mul(o Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += m[i*4+k] * o[k*4+j]
			}
			r[i*4+j] = s
		}
	}
	return r
}

// MulVec applies m to the homogeneous vector v.
func (m Mat4) MulVec(v Vec4) Vec4 {
	return Vec4{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z + m[3]*v.W,
		m[4]*v.X + m[5]*v.Y + m[6]*v.Z + m[7]*v.W,
		m[8]*v.X + m[9]*v.Y + m[10]*v.Z + m[11]*v.W,
		m[12]*v.X + m[13]*v.Y + m[14]*v.Z + m[15]*v.W,
	}
}

// TransformPoint applies m to a point (w=1) and dehomogenizes.
func (m Mat4) TransformPoint(p Vec3) Vec3 {
	return m.MulVec(FromVec3(p, 1)).Dehomogenize()
}

// TransformDir applies only the linear part of m to a direction (w=0).
func (m Mat4) TransformDir(d Vec3) Vec3 {
	return m.Mat3().MulVec(d)
}

// Transpose returns mᵀ.
func (m Mat4) Transpose() Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r[j*4+i] = m[i*4+j]
		}
	}
	return r
}

// InverseRigid inverts a rigid transform (rotation + translation) cheaply
// and exactly: [R t]⁻¹ = [Rᵀ -Rᵀt].
func (m Mat4) InverseRigid() Mat4 {
	rt := m.Mat3().Transpose()
	t := rt.MulVec(m.TranslationPart()).Neg()
	return RigidTransform(rt, t)
}

// RotationX returns the rotation matrix about the X axis by angle radians.
func RotationX(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{
		1, 0, 0,
		0, c, -s,
		0, s, c,
	}
}

// RotationY returns the rotation matrix about the Y axis by angle radians.
func RotationY(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{
		c, 0, s,
		0, 1, 0,
		-s, 0, c,
	}
}

// RotationZ returns the rotation matrix about the Z axis by angle radians.
func RotationZ(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{
		c, -s, 0,
		s, c, 0,
		0, 0, 1,
	}
}

// LookAt builds a world→camera rigid transform for a camera at eye,
// looking toward target, with the given up hint. The camera looks down
// its +Z axis (computer-vision convention: z forward, x right, y down).
func LookAt(eye, target, up Vec3) Mat4 {
	fwd := target.Sub(eye).Normalize()
	right := fwd.Cross(up).Normalize()
	if right.LenSq() < 1e-12 {
		// Degenerate up; pick an arbitrary perpendicular.
		right = fwd.Cross(V3(1, 0, 0)).Normalize()
		if right.LenSq() < 1e-12 {
			right = fwd.Cross(V3(0, 0, 1)).Normalize()
		}
	}
	down := fwd.Cross(right).Normalize()
	r := Mat3{
		right.X, right.Y, right.Z,
		down.X, down.Y, down.Z,
		fwd.X, fwd.Y, fwd.Z,
	}
	t := r.MulVec(eye).Neg()
	return RigidTransform(r, t)
}
