package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mat4AlmostEq(a, b Mat4, tol float64) bool {
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestMat3Identity(t *testing.T) {
	v := V3(1.5, -2, 3)
	if got := Identity3().MulVec(v); got != v {
		t.Errorf("I·v = %v", got)
	}
}

func TestMat3InverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		var m Mat3
		for j := range m {
			m[j] = rng.NormFloat64()
		}
		inv, ok := m.Inverse()
		if !ok {
			continue
		}
		prod := m.Mul(inv)
		id := Identity3()
		for j := range prod {
			if !almostEq(prod[j], id[j], 1e-8) {
				t.Fatalf("m·m⁻¹ [%d] = %v", j, prod[j])
			}
		}
	}
}

func TestMat3Singular(t *testing.T) {
	var zero Mat3
	if _, ok := zero.Inverse(); ok {
		t.Error("zero matrix reported invertible")
	}
}

func TestMat4MulIdentity(t *testing.T) {
	m := Translation(V3(1, 2, 3)).Mul(FromMat3(RotationY(0.7)))
	if got := m.Mul(Identity4()); !mat4AlmostEq(got, m, eps) {
		t.Error("m·I != m")
	}
	if got := Identity4().Mul(m); !mat4AlmostEq(got, m, eps) {
		t.Error("I·m != m")
	}
}

func TestTransformPoint(t *testing.T) {
	m := Translation(V3(10, 0, 0))
	if got := m.TransformPoint(V3(1, 2, 3)); got != V3(11, 2, 3) {
		t.Errorf("translate = %v", got)
	}
	r := FromMat3(RotationZ(math.Pi / 2))
	got := r.TransformPoint(V3(1, 0, 0))
	if !vecAlmostEq(got, V3(0, 1, 0), eps) {
		t.Errorf("rotZ(90°)·x = %v, want +Y", got)
	}
}

func TestInverseRigid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		r := RotationX(rng.Float64() * 6).Mul(RotationY(rng.Float64() * 6)).Mul(RotationZ(rng.Float64() * 6))
		tr := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		m := RigidTransform(r, tr)
		if got := m.Mul(m.InverseRigid()); !mat4AlmostEq(got, Identity4(), 1e-9) {
			t.Fatalf("rigid inverse failed: %v", got)
		}
	}
}

func TestMat4TransposeInvolution(t *testing.T) {
	f := func(vals [16]float64) bool {
		m := Mat4(vals)
		return m.Transpose().Transpose() == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookAtMapsTargetToAxis(t *testing.T) {
	eye, target := V3(0, 0, -5), V3(0, 0, 0)
	m := LookAt(eye, target, V3(0, -1, 0))
	// The eye must map to the camera origin.
	if got := m.TransformPoint(eye); !vecAlmostEq(got, Vec3{}, eps) {
		t.Errorf("eye maps to %v, want origin", got)
	}
	// The target must land on the +Z axis at distance 5.
	got := m.TransformPoint(target)
	if !vecAlmostEq(got, V3(0, 0, 5), eps) {
		t.Errorf("target maps to %v, want (0,0,5)", got)
	}
}

func TestLookAtDegenerateUp(t *testing.T) {
	// Up parallel to the viewing direction must not produce NaNs.
	m := LookAt(V3(0, 0, 0), V3(0, 1, 0), V3(0, 1, 0))
	p := m.TransformPoint(V3(0, 1, 0))
	if !p.IsFinite() {
		t.Fatalf("degenerate LookAt produced %v", p)
	}
	if !almostEq(p.Len(), 1, eps) {
		t.Errorf("target distance = %v, want 1", p.Len())
	}
}

func TestRotationDeterminants(t *testing.T) {
	for _, r := range []Mat3{RotationX(0.3), RotationY(-1.2), RotationZ(2.5)} {
		if !almostEq(r.Det(), 1, eps) {
			t.Errorf("rotation det = %v, want 1", r.Det())
		}
	}
}
