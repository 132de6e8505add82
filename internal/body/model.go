package body

import (
	"math"
	"sync/atomic"

	"semholo/internal/geom"
	"semholo/internal/mesh"
)

// Influence is one skinning weight: how much a joint's bone moves a
// template vertex.
type Influence struct {
	Joint Joint
	W     float64
}

// maxInfluences bounds the influences per vertex (standard LBS practice).
const maxInfluences = 4

// exprAnchor defines one expression blendshape component: template
// vertices within ~3σ of the anchor move along Dir per unit coefficient.
type exprAnchor struct {
	At    geom.Vec3 // relative to the rest head joint
	Dir   geom.Vec3
	Sigma float64
}

// Model is a posed-on-demand parametric human: a rest-pose template mesh,
// skinning weights, and expression blendshapes, all derived from shape
// coefficients. Building a Model is the analogue of SMPL-X's shape stage;
// posing one (Mesh) is the per-frame decode stage of the traditional
// pipeline.
type Model struct {
	Skeleton *Skeleton
	Template *mesh.Mesh
	Weights  [][]Influence // per template vertex

	restInv   [NumJoints]geom.Mat4
	exprBasis [NumExpression][]exprDisp

	// fkMemo caches the last forward-kinematics result. The rasterizer,
	// keypoint projector, and SDF reconstructor each ask for the same
	// frame's transforms back to back; one FK pass serves all of them.
	fkMemo atomic.Pointer[jointMemo]
}

// jointMemo is one memoized forward-kinematics result. Params is
// comparable (fixed-size arrays of float64), so a bitwise pose match is
// a single struct comparison.
type jointMemo struct {
	params  Params
	globals [NumJoints]geom.Mat4
}

type exprDisp struct {
	vertex int
	d      geom.Vec3
}

// Detail controls template density; Detail=2 yields a template in the
// ~10k-vertex regime of SMPL-X (10,475 vertices), which Table 2's
// traditional baseline is sized against.
type ModelOptions struct {
	Detail int // ≥1; default 2
}

// NewModel builds the template for the given shape coefficients.
func NewModel(shape []float64, opt ModelOptions) *Model {
	if opt.Detail < 1 {
		opt.Detail = 2
	}
	skel := shapedSkeleton(shape)
	rest := skel.restGlobalTransforms()
	restPos := JointPositions(&rest)

	m := &Model{Skeleton: skel}
	m.Template = buildTemplate(skel, &restPos, opt.Detail)
	m.Weights = computeWeights(m.Template.Vertices, skel, &restPos)
	for j := 0; j < NumJoints; j++ {
		m.restInv[j] = rest[j].InverseRigid()
	}
	m.buildExpressionBasis(restPos[Head])
	return m
}

// bone i is the segment from parent(i) to i; root has no bone.
func boneSegment(restPos *[NumJoints]geom.Vec3, j Joint) (a, b geom.Vec3, ok bool) {
	p := jointSpecs[j].parent
	if p < 0 {
		return geom.Vec3{}, geom.Vec3{}, false
	}
	return restPos[p], restPos[j], true
}

// buildTemplate creates one capsule per bone (plus a head ellipsoid) in
// the rest pose and merges them. The result is a closed-ish "body suit"
// whose vertex count scales with detail².
func buildTemplate(skel *Skeleton, restPos *[NumJoints]geom.Vec3, detail int) *mesh.Mesh {
	out := &mesh.Mesh{}
	for j := 0; j < NumJoints; j++ {
		a, b, ok := boneSegment(restPos, Joint(j))
		if !ok {
			continue
		}
		r := skel.Radii[j]
		length := b.Dist(a)
		if length < 1e-6 && Joint(j) != Head {
			continue
		}
		circ, rings := 8*detail, 4*detail
		if isFinger(Joint(j)) || Joint(j) == Jaw || Joint(j) == LeftEye || Joint(j) == RightEye {
			circ, rings = 3*detail, 2*detail
		} else if isTorso(Joint(j)) {
			circ, rings = 10*detail, 5*detail
		}
		cap := capsule(a, b, r, circ, rings)
		out.Merge(cap)
	}
	// Head: a dedicated ellipsoid centered slightly above the head joint.
	headR := skel.Radii[Head]
	head := mesh.UnitSphere(minInt(2+detail/2, 4))
	head.Normals = nil
	head.Transform(geom.Scaling(geom.V3(headR*0.95, headR*1.25, headR*1.05)))
	head.Transform(geom.Translation(restPos[Head].Add(geom.V3(0, headR*0.35, 0))))
	out.Merge(head)
	out.ComputeNormals()
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func isFinger(j Joint) bool { return j >= LeftThumb1 }

func isTorso(j Joint) bool {
	switch j {
	case Spine1, Spine2, Spine3, Neck, LeftHip, RightHip:
		return true
	}
	return false
}

// capsule builds a closed capsule mesh from a to b with the given radius.
func capsule(a, b geom.Vec3, r float64, circ, rings int) *mesh.Mesh {
	if circ < 3 {
		circ = 3
	}
	if rings < 1 {
		rings = 1
	}
	axis := b.Sub(a)
	length := axis.Len()
	var z geom.Vec3
	if length < 1e-9 {
		z = geom.V3(0, 1, 0)
	} else {
		z = axis.Scale(1 / length)
	}
	// Orthonormal frame around the axis.
	var x geom.Vec3
	if math.Abs(z.X) < 0.9 {
		x = geom.V3(1, 0, 0).Sub(z.Scale(z.X)).Normalize()
	} else {
		x = geom.V3(0, 1, 0).Sub(z.Scale(z.Y)).Normalize()
	}
	y := z.Cross(x)

	m := &mesh.Mesh{}
	capRings := 2 // hemispherical cap subdivisions
	// Ring parameters: t in [-capRings .. rings+capRings]; cap rings bend
	// around the ends.
	ringCenterAndRadius := func(t int) (geom.Vec3, float64) {
		switch {
		case t < 0: // bottom cap
			ang := float64(-t) / float64(capRings+1) * math.Pi / 2
			return a.Sub(z.Scale(r * math.Sin(ang))), r * math.Cos(ang)
		case t > rings: // top cap
			ang := float64(t-rings) / float64(capRings+1) * math.Pi / 2
			return b.Add(z.Scale(r * math.Sin(ang))), r * math.Cos(ang)
		default:
			f := float64(t) / float64(rings)
			return a.Lerp(b, f), r
		}
	}
	// Bottom apex, rings, top apex.
	bottom := len(m.Vertices)
	m.Vertices = append(m.Vertices, a.Sub(z.Scale(r)))
	ringStart := make([]int, 0, rings+2*capRings+1)
	for t := -capRings; t <= rings+capRings; t++ {
		c, rr := ringCenterAndRadius(t)
		ringStart = append(ringStart, len(m.Vertices))
		for s := 0; s < circ; s++ {
			ang := 2 * math.Pi * float64(s) / float64(circ)
			dir := x.Scale(math.Cos(ang)).Add(y.Scale(math.Sin(ang)))
			m.Vertices = append(m.Vertices, c.Add(dir.Scale(rr)))
		}
	}
	top := len(m.Vertices)
	m.Vertices = append(m.Vertices, b.Add(z.Scale(r)))

	// Fans at the apexes. Winding: outward normals.
	first := ringStart[0]
	for s := 0; s < circ; s++ {
		m.Faces = append(m.Faces, mesh.Face{A: bottom, B: first + (s+1)%circ, C: first + s})
	}
	for ri := 0; ri+1 < len(ringStart); ri++ {
		r0, r1 := ringStart[ri], ringStart[ri+1]
		for s := 0; s < circ; s++ {
			s1 := (s + 1) % circ
			m.Faces = append(m.Faces,
				mesh.Face{A: r0 + s, B: r0 + s1, C: r1 + s},
				mesh.Face{A: r0 + s1, B: r1 + s1, C: r1 + s},
			)
		}
	}
	last := ringStart[len(ringStart)-1]
	for s := 0; s < circ; s++ {
		m.Faces = append(m.Faces, mesh.Face{A: top, B: last + s, C: last + (s+1)%circ})
	}
	return m
}

// BindWeights binds rest-pose surface vertices to the skeleton with the
// model's own proximity weights — the binding Weights holds for the
// template — so Skin can pose any surface extracted in the rest pose.
func (m *Model) BindWeights(verts []geom.Vec3) [][]Influence {
	rest := m.Skeleton.restGlobalTransforms()
	restPos := JointPositions(&rest)
	return computeWeights(verts, m.Skeleton, &restPos)
}

// computeWeights assigns up to maxInfluences bone weights per vertex by
// proximity to bone segments, with a Gaussian falloff that blends
// smoothly across joints. Every vertex's influences are a window of one
// flat backing array.
func computeWeights(verts []geom.Vec3, skel *Skeleton, restPos *[NumJoints]geom.Vec3) [][]Influence {
	weights := make([][]Influence, len(verts))
	flat := make([]Influence, 0, len(verts)*maxInfluences)
	best := make([]Influence, 0, maxInfluences+1)
	const sigma = 0.04
	for vi, v := range verts {
		best = best[:0]
		for j := 1; j < NumJoints; j++ { // skip root (no bone)
			a, b, ok := boneSegment(restPos, Joint(j))
			if !ok {
				continue
			}
			d := geom.SegDist(v, a, b) - skel.Radii[j]
			if d < 0 {
				d = 0
			}
			if d > 3*sigma {
				continue
			}
			w := math.Exp(-d * d / (2 * sigma * sigma))
			// Insert into the running top-k.
			best = append(best, Influence{Joint: Joint(j), W: w})
			for i := len(best) - 1; i > 0 && best[i].W > best[i-1].W; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
			if len(best) > maxInfluences {
				best = best[:maxInfluences]
			}
		}
		if len(best) == 0 {
			// Far from every bone (shouldn't happen for capsule-built
			// vertices): bind to the nearest joint rigidly.
			nearest, nd := Joint(1), math.Inf(1)
			for j := 1; j < NumJoints; j++ {
				if d := restPos[j].Dist(v); d < nd {
					nearest, nd = Joint(j), d
				}
			}
			best = append(best, Influence{Joint: nearest, W: 1})
		}
		var sum float64
		for _, in := range best {
			sum += in.W
		}
		for i := range best {
			best[i].W /= sum
		}
		start := len(flat)
		flat = append(flat, best...)
		weights[vi] = flat[start:len(flat):len(flat)]
	}
	return weights
}

// buildExpressionBasis precomputes sparse vertex displacement fields for
// the facial expression coefficients. Expression[0] (jaw open) acts on
// the jaw joint instead and has no vertex field.
func (m *Model) buildExpressionBasis(headRest geom.Vec3) {
	anchors := [NumExpression][]exprAnchor{
		0: nil, // jaw open: joint rotation
		1: { // smile / pout: mouth corners
			{At: geom.V3(0.045, -0.045, 0.075), Dir: geom.V3(0.004, 0.010, 0.002), Sigma: 0.025},
			{At: geom.V3(-0.045, -0.045, 0.075), Dir: geom.V3(-0.004, 0.010, 0.002), Sigma: 0.025},
		},
		2: { // brow raise
			{At: geom.V3(0.03, 0.06, 0.09), Dir: geom.V3(0, 0.012, 0), Sigma: 0.02},
			{At: geom.V3(-0.03, 0.06, 0.09), Dir: geom.V3(0, 0.012, 0), Sigma: 0.02},
		},
		3: { // cheek puff
			{At: geom.V3(0.055, -0.03, 0.05), Dir: geom.V3(0.012, 0, 0.004), Sigma: 0.03},
			{At: geom.V3(-0.055, -0.03, 0.05), Dir: geom.V3(-0.012, 0, 0.004), Sigma: 0.03},
		},
		4: { // lip press
			{At: geom.V3(0, -0.05, 0.09), Dir: geom.V3(0, -0.006, -0.004), Sigma: 0.02},
		},
		5: { // nose wrinkle
			{At: geom.V3(0, 0.0, 0.10), Dir: geom.V3(0, 0.006, -0.003), Sigma: 0.015},
		},
		6: { // left eye squint
			{At: geom.V3(0.035, 0.05, 0.09), Dir: geom.V3(0, -0.008, 0), Sigma: 0.015},
		},
		7: { // right eye squint
			{At: geom.V3(-0.035, 0.05, 0.09), Dir: geom.V3(0, -0.008, 0), Sigma: 0.015},
		},
		8: { // chin dimple
			{At: geom.V3(0, -0.09, 0.07), Dir: geom.V3(0, 0, 0.006), Sigma: 0.02},
		},
		9: { // temples
			{At: geom.V3(0.06, 0.04, 0.02), Dir: geom.V3(0.005, 0, 0), Sigma: 0.02},
			{At: geom.V3(-0.06, 0.04, 0.02), Dir: geom.V3(-0.005, 0, 0), Sigma: 0.02},
		},
	}
	for k, list := range anchors {
		for _, anc := range list {
			at := headRest.Add(anc.At)
			for vi, v := range m.Template.Vertices {
				d := v.Dist(at)
				if d > 3*anc.Sigma {
					continue
				}
				f := math.Exp(-d * d / (2 * anc.Sigma * anc.Sigma))
				m.exprBasis[k] = append(m.exprBasis[k], exprDisp{vertex: vi, d: anc.Dir.Scale(f)})
			}
		}
	}
}

// effectivePose returns the pose with expression-driven joint articulation
// (jaw opening) folded in.
func effectivePose(p *Params) [NumJoints]geom.Vec3 {
	pose := p.Pose
	// Jaw open: rotate the jaw down around +X by up to ~0.45 rad.
	pose[Jaw] = pose[Jaw].Add(geom.V3(0.45*geom.Clamp(p.Expression[0], 0, 1), 0, 0))
	return pose
}

// Mesh poses the template with linear blend skinning and applies the
// expression blendshapes, returning a new mesh. This is the per-frame
// "PtCl/Mesh synthesis" stage of Figure 1's traditional pipeline and the
// ground-truth generator for the keypoint pipeline's quality metrics.
func (m *Model) Mesh(p *Params) *mesh.Mesh {
	var skin [NumJoints]geom.Mat4
	m.SkinMatrices(p, &skin)
	// Expression displacement in rest space, then skinning.
	displaced := m.Template.Vertices
	needCopy := false
	for k := 1; k < NumExpression; k++ {
		if p.Expression[k] != 0 && len(m.exprBasis[k]) > 0 {
			needCopy = true
		}
	}
	if needCopy {
		displaced = append([]geom.Vec3(nil), m.Template.Vertices...)
		for k := 1; k < NumExpression; k++ {
			c := geom.Clamp(p.Expression[k], -2, 2)
			if c == 0 {
				continue
			}
			for _, ed := range m.exprBasis[k] {
				displaced[ed.vertex] = displaced[ed.vertex].Add(ed.d.Scale(c))
			}
		}
	}

	out := &mesh.Mesh{
		Vertices: make([]geom.Vec3, len(displaced)),
		Faces:    m.Template.Faces, // shared: connectivity never changes
	}
	Skin(out.Vertices, displaced, m.Weights, &skin)
	out.ComputeNormals()
	return out
}

// SkinMatrices writes the linear-blend-skinning transform of every joint
// for p into skin: the posed global transform times the inverse rest
// transform, so a rest-pose point bound to joint j moves with it.
func (m *Model) SkinMatrices(p *Params, skin *[NumJoints]geom.Mat4) {
	g := m.JointGlobals(p)
	for j := 0; j < NumJoints; j++ {
		skin[j] = g[j].Mul(m.restInv[j])
	}
}

// Skin poses rest-pose vertices by linear blend skinning: dst[i] is the
// weights[i] blend of the skin transforms applied to rest[i]. It is the
// one LBS loop behind both Model.Mesh and the avatar reconstructor's
// skinned surfaces; every vertex is independent, so callers may skin
// disjoint subslices concurrently.
func Skin(dst, rest []geom.Vec3, weights [][]Influence, skin *[NumJoints]geom.Mat4) {
	for vi, v := range rest {
		var acc geom.Vec3
		for _, in := range weights[vi] {
			acc = acc.Add(skin[in.Joint].TransformPoint(v).Scale(in.W))
		}
		dst[vi] = acc
	}
}

// KeypointCount is the number of keypoints Keypoints returns: all joints
// plus fingertip, nose, ear, and head-top landmarks — the ~70-point
// full-body set (body + hands + face) the taxonomy describes (§2.3).
const KeypointCount = NumJoints + 10 + 4

// Keypoints returns world-space keypoint positions for the given params
// via forward kinematics. Index 0..NumJoints-1 are the joints in order;
// the remainder are landmarks.
func (m *Model) Keypoints(p *Params) []geom.Vec3 {
	g := m.JointGlobals(p)
	pts := make([]geom.Vec3, 0, KeypointCount)
	for j := 0; j < NumJoints; j++ {
		pts = append(pts, g[j].TranslationPart())
	}
	// Fingertips: extend the distal phalanx by ~60% of its offset.
	tips := []Joint{
		LeftThumb3, LeftIndex3, LeftMiddle3, LeftRing3, LeftPinky3,
		RightThumb3, RightIndex3, RightMiddle3, RightRing3, RightPinky3,
	}
	for _, j := range tips {
		ext := m.Skeleton.Offsets[j].Scale(0.6)
		pts = append(pts, g[j].TransformPoint(ext))
	}
	// Face landmarks in the head frame: nose, chin via jaw, ears, head top.
	headR := m.Skeleton.Radii[Head]
	pts = append(pts,
		g[Head].TransformPoint(geom.V3(0, 0, headR*1.05)),     // nose
		g[Head].TransformPoint(geom.V3(headR*0.95, 0.01, 0)),  // left ear
		g[Head].TransformPoint(geom.V3(-headR*0.95, 0.01, 0)), // right ear
		g[Head].TransformPoint(geom.V3(0, headR*1.6, 0)),      // head top
	)
	return pts
}

// JointGlobals exposes the forward-kinematics transforms for a pose —
// used by the avatar reconstructor's implicit SDF, the mesh skinner, and
// the keypoint projector. Back-to-back calls with bitwise-identical
// parameters return a memoized result (a lock-free single-entry cache,
// safe for concurrent callers).
func (m *Model) JointGlobals(p *Params) [NumJoints]geom.Mat4 {
	if mm := m.fkMemo.Load(); mm != nil && mm.params == *p {
		return mm.globals
	}
	pose := effectivePose(p)
	g := m.Skeleton.globalTransforms(&pose, p.Translation)
	m.fkMemo.Store(&jointMemo{params: *p, globals: g})
	return g
}
