package render_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/par"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
)

// refProjVert is the reference rasteriser's projected vertex.
type refProjVert struct {
	cam geom.Vec3
	px  geom.Vec2
	ok  bool
}

// renderMeshReference is RenderMesh as it was before bands rejected faces
// on integer pixel ranges and set-up became lazy: a float bounding box
// and the full per-face set-up for every face that reaches the band.
// RenderMesh must match it byte for byte.
func renderMeshReference(f *render.Frame, m *mesh.Mesh, opt render.MeshOptions) {
	const near = 1e-3
	w, h := f.Camera.Intr.Width, f.Camera.Intr.Height
	if opt.Ambient == 0 {
		opt.Ambient = 0.25
	}
	light := opt.LightDir
	if light.LenSq() == 0 {
		// Headlight: from the surface toward the camera.
		light = f.Camera.CamToWorld().TransformDir(geom.V3(0, 0, -1))
	}
	light = light.Normalize()
	albedo := opt.Albedo
	if albedo == (pointcloud.Color{}) {
		albedo = pointcloud.Color{R: 0.8, G: 0.8, B: 0.8}
	}

	useVertexNormals := len(m.Normals) == len(m.Vertices)
	workers := par.Resolve(opt.Workers)

	// Precompute camera-space positions and projections (parallel over
	// vertices; each slot written exactly once).
	projs := make([]refProjVert, len(m.Vertices))
	par.For(workers, len(m.Vertices), func(i int) {
		c := f.Camera.WorldToCam.TransformPoint(m.Vertices[i])
		if c.Z <= near {
			projs[i] = refProjVert{cam: c}
			return
		}
		px, _, _ := f.Camera.Intr.Project(c)
		projs[i] = refProjVert{cam: c, px: px, ok: true}
	})

	// Rasterize bands of rows [bandLo, bandHi) concurrently. Every band
	// walks the full face list in order, so per-pixel depth resolution
	// matches the serial pass exactly.
	par.ForChunks(workers, h, func(_, bandLo, bandHi int) {
		for fi, face := range m.Faces {
			pa, pb, pc := projs[face.A], projs[face.B], projs[face.C]
			if !pa.ok || !pb.ok || !pc.ok {
				continue
			}
			// Screen-space bounding box, clipped to the band.
			minX := int(math.Floor(math.Min(pa.px.X, math.Min(pb.px.X, pc.px.X))))
			maxX := int(math.Ceil(math.Max(pa.px.X, math.Max(pb.px.X, pc.px.X))))
			minY := int(math.Floor(math.Min(pa.px.Y, math.Min(pb.px.Y, pc.px.Y))))
			maxY := int(math.Ceil(math.Max(pa.px.Y, math.Max(pb.px.Y, pc.px.Y))))
			if minX < 0 {
				minX = 0
			}
			if minY < bandLo {
				minY = bandLo
			}
			if maxX >= w {
				maxX = w - 1
			}
			if maxY >= bandHi {
				maxY = bandHi - 1
			}
			if minX > maxX || minY > maxY {
				continue
			}
			// Edge function setup.
			x0, y0 := pa.px.X, pa.px.Y
			x1, y1 := pb.px.X, pb.px.Y
			x2, y2 := pc.px.X, pc.px.Y
			area := (x1-x0)*(y2-y0) - (y1-y0)*(x2-x0)
			if math.Abs(area) < 1e-12 {
				continue
			}
			invArea := 1 / area
			invZ0, invZ1, invZ2 := 1/pa.cam.Z, 1/pb.cam.Z, 1/pc.cam.Z

			va, vb, vc := m.Vertices[face.A], m.Vertices[face.B], m.Vertices[face.C]
			var na, nb, nc geom.Vec3
			if useVertexNormals {
				na, nb, nc = m.Normals[face.A], m.Normals[face.B], m.Normals[face.C]
			} else {
				n := m.FaceNormal(fi)
				na, nb, nc = n, n, n
			}

			for y := minY; y <= maxY; y++ {
				fy := float64(y) + 0.5
				for x := minX; x <= maxX; x++ {
					fx := float64(x) + 0.5
					w0 := ((x1-fx)*(y2-fy) - (y1-fy)*(x2-fx)) * invArea
					w1 := ((x2-fx)*(y0-fy) - (y2-fy)*(x0-fx)) * invArea
					w2 := 1 - w0 - w1
					if w0 < 0 || w1 < 0 || w2 < 0 {
						continue
					}
					// Perspective-correct interpolation via 1/z.
					invZ := w0*invZ0 + w1*invZ1 + w2*invZ2
					z := 1 / invZ
					idx := y*w + x
					if f.Depth[idx] != 0 && z >= f.Depth[idx] {
						continue
					}
					b0 := w0 * invZ0 * z
					b1 := w1 * invZ1 * z
					b2 := w2 * invZ2 * z
					pos := va.Scale(b0).Add(vb.Scale(b1)).Add(vc.Scale(b2))
					normal := na.Scale(b0).Add(nb.Scale(b1)).Add(nc.Scale(b2)).Normalize()

					var col pointcloud.Color
					if opt.Shader != nil {
						col = opt.Shader(fi, [3]float64{b0, b1, b2}, pos, normal)
					} else {
						col = albedo
					}
					if !opt.Unlit {
						lam := math.Abs(normal.Dot(light))
						shade := opt.Ambient + (1-opt.Ambient)*lam
						col = pointcloud.Color{R: col.R * shade, G: col.G * shade, B: col.B * shade}
					}
					f.Depth[idx] = z
					f.Color[idx] = col
				}
			}
		}
	})
}

// firstDiff returns the first pixel whose depth or color bits differ
// between a and b, or -1.
func firstDiff(a, b *render.Frame) int {
	for i := range a.Depth {
		ca, cb := a.Color[i], b.Color[i]
		if math.Float64bits(a.Depth[i]) != math.Float64bits(b.Depth[i]) ||
			math.Float64bits(ca.R) != math.Float64bits(cb.R) ||
			math.Float64bits(ca.G) != math.Float64bits(cb.G) ||
			math.Float64bits(ca.B) != math.Float64bits(cb.B) {
			return i
		}
	}
	return -1
}

// checkAgainstReference renders m with RenderMesh and with the reference
// and fails on the first pixel whose bits differ.
func checkAgainstReference(t *testing.T, name string, cam geom.Camera, m *mesh.Mesh, opt render.MeshOptions) {
	t.Helper()
	got, want := render.NewFrame(cam), render.NewFrame(cam)
	render.RenderMesh(got, m, opt)
	renderMeshReference(want, m, opt)
	if i := firstDiff(got, want); i >= 0 {
		w := cam.Intr.Width
		t.Fatalf("%s: pixel (%d,%d) depth %v color %+v, reference depth %v color %+v",
			name, i%w, i/w, got.Depth[i], got.Color[i], want.Depth[i], want.Color[i])
	}
}

var (
	benchModelOnce sync.Once
	benchModel     *body.Model
)

// model is the body model the benchmark's corpus uses.
func model() *body.Model {
	benchModelOnce.Do(func() { benchModel = body.NewModel(nil, body.ModelOptions{Detail: 1}) })
	return benchModel
}

// probeCamera is the benchmark's probe: the first camera of its capture
// ring, at res×res.
func probeCamera(res int) geom.Camera {
	return capture.NewRing(4, 2.5, 1.0, geom.V3(0, 1.0, 0), res, math.Pi/3, 1).Cameras[0]
}

// referenceCameras are seven views of the body: the four ring cameras at
// 64², the probe at 32², a 128×96 view, and a close view with much of
// the body off-frame and parts of it behind the near plane.
func referenceCameras() []geom.Camera {
	cams := append([]geom.Camera(nil), capture.NewRing(4, 2.5, 1.0, geom.V3(0, 1.0, 0), 64, math.Pi/3, 1).Cameras...)
	cams = append(cams,
		probeCamera(32),
		geom.NewLookAtCamera(geom.Intrinsics{Width: 128, Height: 96, Fx: 100, Fy: 100, Cx: 64, Cy: 48},
			geom.V3(1.2, 1.6, 1.8), geom.V3(0, 1.0, 0), geom.V3(0, 1, 0)),
		geom.NewLookAtCamera(geom.IntrinsicsFromFOV(64, 64, math.Pi/2),
			geom.V3(0.1, 1.45, 0.12), geom.V3(0, 1.2, -1), geom.V3(0, 1, 0)),
	)
	return cams
}

// TestRenderMeshMatchesReference renders skinned meshes at res 32/64/128,
// the same meshes with vertex normals, and ground-truth body meshes, for
// two poses, on seven cameras at Workers 1/2/3, and requires every frame
// to equal the reference rasteriser's bit for bit.
func TestRenderMeshMatchesReference(t *testing.T) {
	resolutions := []int{32, 64, 128}
	poses := []*body.Params{body.Talking(nil).At(0.7), body.Walking(nil).At(1.3)}
	if testing.Short() {
		resolutions, poses = resolutions[:2], poses[:1]
	}
	type namedMesh struct {
		name string
		m    *mesh.Mesh
	}
	var meshes []namedMesh
	for pi, p := range poses {
		for _, res := range resolutions {
			rec := &avatar.Reconstructor{Model: model(), Resolution: res}
			skinned := rec.Skin(p)
			normals := skinned.Clone()
			normals.ComputeNormals()
			meshes = append(meshes,
				namedMesh{name: fmt.Sprintf("pose %d skinned res %d", pi, res), m: skinned},
				namedMesh{name: fmt.Sprintf("pose %d skinned res %d with normals", pi, res), m: normals})
		}
		meshes = append(meshes, namedMesh{name: fmt.Sprintf("pose %d ground truth", pi), m: model().Mesh(p)})
	}
	options := []render.MeshOptions{
		capture.SkinShader(),
		{},
		{Unlit: true, Albedo: pointcloud.Color{R: 0.3, G: 0.6, B: 0.9}},
	}
	renders := 0
	for mi, nm := range meshes {
		for ci, cam := range referenceCameras() {
			for _, workers := range []int{1, 2, 3} {
				opt := options[(mi+ci)%len(options)]
				opt.Workers = workers
				checkAgainstReference(t, fmt.Sprintf("%s, camera %d, workers %d", nm.name, ci, workers), cam, nm.m, opt)
				renders++
			}
		}
	}
	t.Logf("%d renders byte-identical to the reference", renders)
}

// soupCamera looks down +z from the origin with unit focal length and
// the principal point at pixel (0, 0): a world point (u·z, v·z, z) with z
// a power of two projects to exactly (u, v), so a soup can place a vertex
// within a chosen number of ulps of a pixel centre or edge.
func soupCamera(w, h int) geom.Camera {
	return geom.Camera{Intr: geom.Intrinsics{Width: w, Height: h, Fx: 1, Fy: 1}, WorldToCam: geom.Identity4()}
}

// nudge moves v by k ulps.
func nudge(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// soup builds a random triangle soup for soupCamera(w, h). Each spec
// byte picks how one vertex is placed: anywhere around the frame, within
// a few ulps of a pixel centre or of a pixel edge, at or behind the near
// plane, on top of an earlier vertex, on the segment between two earlier
// vertices (a sliver), far off-frame, or just past the near plane. Faces
// join consecutive vertices and random vertex triples. The last return
// is the options to render it with.
func soup(seed int64, spec []byte) (geom.Camera, *mesh.Mesh, render.MeshOptions) {
	rng := rand.New(rand.NewSource(seed))
	w, h := 4+rng.Intn(21), 4+rng.Intn(21)
	if len(spec) == 0 {
		spec = []byte{0}
	}
	n := 3 + rng.Intn(40)
	m := &mesh.Mesh{Vertices: make([]geom.Vec3, 0, n)}
	depths := []float64{0.25, 0.5, 1, 2, 4}
	for i := 0; i < n; i++ {
		z := depths[rng.Intn(len(depths))]
		var u, v float64
		switch mode := spec[i%len(spec)] % 8; {
		case mode == 0:
			u, v = rng.Float64()*float64(w+4)-2, rng.Float64()*float64(h+4)-2
		case mode == 1:
			u = nudge(float64(rng.Intn(w))+0.5, rng.Intn(9)-4)
			v = nudge(float64(rng.Intn(h))+0.5, rng.Intn(9)-4)
		case mode == 2:
			u = nudge(float64(rng.Intn(w+1)), rng.Intn(9)-4)
			v = nudge(float64(rng.Intn(h+1)), rng.Intn(9)-4)
		case mode == 3:
			z = []float64{-1, 0, 1e-4, 1e-3}[rng.Intn(4)]
			u, v = rng.Float64()*float64(w), rng.Float64()*float64(h)
		case mode == 4 && i > 0:
			p := m.Vertices[rng.Intn(i)]
			m.Vertices = append(m.Vertices, geom.V3(nudge(p.X, rng.Intn(3)-1), p.Y, p.Z))
			continue
		case mode == 5 && i > 1:
			a, b := m.Vertices[rng.Intn(i)], m.Vertices[rng.Intn(i)]
			m.Vertices = append(m.Vertices, a.Add(b.Sub(a).Scale(rng.Float64())))
			continue
		case mode == 6:
			u = (rng.Float64() - 0.5) * math.Pow(10, 3+3*rng.Float64())
			v = (rng.Float64() - 0.5) * math.Pow(10, 3+3*rng.Float64())
		default:
			z = 1e-3 * (1 + rng.Float64())
			u, v = rng.Float64()*float64(w), rng.Float64()*float64(h)
		}
		m.Vertices = append(m.Vertices, geom.V3(u*z, v*z, z))
	}
	for i := 0; i+2 < n; i++ {
		m.Faces = append(m.Faces, mesh.Face{A: i, B: i + 1, C: i + 2})
		m.Faces = append(m.Faces, mesh.Face{A: rng.Intn(n), B: rng.Intn(n), C: rng.Intn(n)})
	}
	opt := render.MeshOptions{Workers: 1 + rng.Intn(3), Unlit: rng.Intn(4) == 0}
	if rng.Intn(2) == 0 {
		m.ComputeNormals()
	}
	if rng.Intn(2) == 0 {
		opt.Shader = func(fi int, bary [3]float64, pos, normal geom.Vec3) pointcloud.Color {
			return pointcloud.Color{R: bary[0] + pos.X, G: bary[1] + normal.Y, B: float64(fi%5) / 5}
		}
	}
	return soupCamera(w, h), m, opt
}

// TestRenderMeshSoupsMatchReference: 300 seeded triangle soups, each
// rendered by RenderMesh and by the reference, must agree bit for bit.
func TestRenderMeshSoupsMatchReference(t *testing.T) {
	specs := [][]byte{{0}, {1}, {2}, {1, 2, 4, 5}, {0, 1, 2, 3, 4, 5, 6, 7}, {1, 1, 5}, {6, 0, 7}}
	for seed := int64(0); seed < 300; seed++ {
		cam, m, opt := soup(seed, specs[seed%int64(len(specs))])
		checkAgainstReference(t, fmt.Sprintf("soup %d", seed), cam, m, opt)
	}
}

// FuzzRenderMesh drives soup with arbitrary seeds and placement specs;
// RenderMesh must never panic and must match the reference bit for bit.
func FuzzRenderMesh(f *testing.F) {
	f.Add(int64(1), []byte{1})
	f.Add(int64(2), []byte{1, 2, 4, 5})
	f.Add(int64(3), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(4), []byte{5, 5, 1})
	f.Fuzz(func(t *testing.T, seed int64, spec []byte) {
		if len(spec) > 64 {
			spec = spec[:64]
		}
		cam, m, opt := soup(seed, spec)
		checkAgainstReference(t, "fuzz soup", cam, m, opt)
	})
}

// TestRenderMeshGoldenDigest pins what the decode path displays: 20
// skinned frames of the talking motion at 30 fps, res 32 and 64,
// rasterised with the capture shader to the benchmark's 64² probe. The
// digests were recorded with the reference rasteriser.
func TestRenderMeshGoldenDigest(t *testing.T) {
	golden := map[int]uint64{
		32: 0x0097d43ce968e53f,
		64: 0x55df59bfef37ea35,
	}
	cam := probeCamera(64)
	talk := body.Talking(nil)
	for _, res := range []int{32, 64} {
		rec := &avatar.Reconstructor{Model: model(), Resolution: res}
		for _, workers := range []int{1, 2} {
			h := fnv.New64a()
			var b [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			f := render.NewFrame(cam)
			opt := capture.SkinShader()
			opt.Workers = workers
			for i := 0; i < 20; i++ {
				f.Clear()
				render.RenderMesh(f, rec.Skin(talk.At(float64(i)/30)), opt)
				for p := range f.Depth {
					put(f.Depth[p])
					put(f.Color[p].R)
					put(f.Color[p].G)
					put(f.Color[p].B)
				}
			}
			if got := h.Sum64(); got != golden[res] {
				t.Errorf("res %d workers %d: frame digest %#x, want %#x", res, workers, got, golden[res])
			}
		}
	}
}

// TestRenderMeshAllocs pins the rasteriser's serial path at no
// allocation once its pooled projection scratch is warm.
func TestRenderMeshAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	m := (&avatar.Reconstructor{Model: model(), Resolution: 64}).Skin(body.Talking(nil).At(0.7))
	f := render.NewFrame(probeCamera(64))
	opt := capture.SkinShader()
	opt.Workers = 1
	draw := func() { f.Clear(); render.RenderMesh(f, m, opt) }
	draw()
	if n := testing.AllocsPerRun(50, draw); n != 0 {
		t.Fatalf("RenderMesh makes %.0f allocations, want 0", n)
	}
}

// TestRenderMeshPooledConcurrent renders meshes of different sizes from
// many goroutines at once, at Workers 1 and 2, so that projection
// scratch too short for one mesh and too long for another passes
// between calls through the pool; every frame must equal the reference
// rasteriser's bit for bit.
func TestRenderMeshPooledConcurrent(t *testing.T) {
	p := body.Talking(nil).At(0.4)
	meshes := []*mesh.Mesh{
		(&avatar.Reconstructor{Model: model(), Resolution: 32}).Skin(p),
		(&avatar.Reconstructor{Model: model(), Resolution: 64}).Skin(p),
		model().Mesh(p),
		mesh.UnitSphere(2),
	}
	cam := probeCamera(64)
	opt := capture.SkinShader()
	want := make([]*render.Frame, len(meshes))
	for i, m := range meshes {
		want[i] = render.NewFrame(cam)
		renderMeshReference(want[i], m, opt)
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(meshes)*rounds)
	for _, workers := range []int{1, 2} {
		for i, m := range meshes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := opt
				o.Workers = workers
				f := render.NewFrame(cam)
				for r := 0; r < rounds; r++ {
					f.Clear()
					render.RenderMesh(f, m, o)
					if px := firstDiff(f, want[i]); px >= 0 {
						errs <- fmt.Sprintf("mesh %d (%d vertices) workers %d round %d: pixel %d differs from the reference",
							i, len(m.Vertices), workers, r, px)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkRenderMeshProbe is the benchmark's display stage: a res-64
// skinned body rasterised with the capture shader to the 64² probe.
func BenchmarkRenderMeshProbe(b *testing.B) {
	m := (&avatar.Reconstructor{Model: model(), Resolution: 64}).Skin(body.Talking(nil).At(0.7))
	f := render.NewFrame(probeCamera(64))
	for _, workers := range []int{1, 2} {
		opt := capture.SkinShader()
		opt.Workers = workers
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Clear()
				render.RenderMesh(f, m, opt)
			}
		})
	}
}
