// Package render implements a software rasterizer: perspective-correct,
// z-buffered triangle rasterization with Lambertian shading, plus point
// splatting for clouds. It serves two roles in the reproduction: it
// generates the synthetic RGB-D captures that stand in for the paper's
// physical camera rig (§2.1), and it renders receiver-side reconstructions
// so visual quality can be measured objectively (Figures 2 and 3).
//
// Both rasterization entry points parallelize over horizontal screen
// bands: each worker owns a contiguous range of rows and walks the full
// primitive list, touching only pixels inside its band. Per-pixel output
// depends only on primitive order — identical in every band — so the
// frame is byte-identical for every worker count, and no two goroutines
// ever write the same depth/color slot.
//
// RenderMesh rejects a face for a band with integer compares on its
// vertices' pixel ranges, computed once per vertex. It edge-tests only
// the pixels whose centres lie within a proven error bound of the face's
// bounding box, and loads a face's depths, vertices and normals at its
// first covered pixel. Its cost therefore follows the faces that cover a
// pixel centre, and every pixel it writes equals the plain floor/ceil
// box rasteriser's bit for bit.
package render

import (
	"image"
	"image/color"
	"math"
	"sync"

	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/par"
	"semholo/internal/pointcloud"
)

// Frame is a color+depth framebuffer bound to a camera.
type Frame struct {
	Camera geom.Camera
	Color  []pointcloud.Color // row-major, W*H
	Depth  []float64          // camera-space z; 0 = no hit
}

// NewFrame allocates a cleared framebuffer for the camera.
func NewFrame(cam geom.Camera) *Frame {
	n := cam.Intr.Width * cam.Intr.Height
	return &Frame{
		Camera: cam,
		Color:  make([]pointcloud.Color, n),
		Depth:  make([]float64, n),
	}
}

// Clear resets color and depth.
func (f *Frame) Clear() {
	for i := range f.Color {
		f.Color[i] = pointcloud.Color{}
		f.Depth[i] = 0
	}
}

// At returns the color at pixel (x, y).
func (f *Frame) At(x, y int) pointcloud.Color {
	return f.Color[y*f.Camera.Intr.Width+x]
}

// DepthView converts the frame into a calibrated RGB-D view for fusion.
func (f *Frame) DepthView() pointcloud.DepthView {
	return pointcloud.DepthView{
		Camera: f.Camera,
		Depth:  append([]float64(nil), f.Depth...),
		Colors: append([]pointcloud.Color(nil), f.Color...),
	}
}

// Image converts the color buffer to a standard library image.
func (f *Frame) Image() *image.RGBA {
	w, h := f.Camera.Intr.Width, f.Camera.Intr.Height
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := f.Color[y*w+x]
			img.SetRGBA(x, y, color.RGBA{
				R: uint8(geom.Clamp(c.R, 0, 1) * 255),
				G: uint8(geom.Clamp(c.G, 0, 1) * 255),
				B: uint8(geom.Clamp(c.B, 0, 1) * 255),
				A: 255,
			})
		}
	}
	return img
}

// Shader computes the color of a surface sample. bary are the barycentric
// coordinates within face fi; pos and normal are world-space.
//
// Shaders run from multiple goroutines when rendering with Workers != 1
// and must be safe for concurrent calls (the procedural shaders used
// throughout are pure functions).
type Shader func(fi int, bary [3]float64, pos, normal geom.Vec3) pointcloud.Color

// MeshOptions configures RenderMesh.
type MeshOptions struct {
	// Albedo is the uniform surface color when Shader is nil.
	Albedo pointcloud.Color
	// Shader overrides Albedo when non-nil (used for texture mapping).
	Shader Shader
	// LightDir is the direction *toward* the light (world space);
	// defaults to a headlight from the camera.
	LightDir geom.Vec3
	// Ambient light floor in [0,1]; default 0.25.
	Ambient float64
	// Unlit disables shading entirely (colors pass through).
	Unlit bool
	// Workers bounds rasterization parallelism: 0 uses GOMAXPROCS, 1
	// forces the serial path. Output is byte-identical either way.
	Workers int
}

// projVert is a projected vertex: its screen coordinates and its integer
// pixel ranges x0 = ⌊px.X⌋, x1 = ⌈px.X⌉, y0 = ⌊px.Y⌋, y1 = ⌈px.Y⌉. Floor
// and ceil are monotone, so a face's floor/ceil box — every pixel a
// float bounding box could reach — is the integer min/max of its
// vertices' ranges. y0 holds spanCulled for a vertex at or behind the
// near plane and spanWild for a coordinate beyond ±wildCoord (or NaN).
// The camera-space depth is not kept: the few faces that cover a pixel
// recompute it.
type projVert struct {
	px     geom.Vec2
	x0, x1 int32
	y0, y1 int32
}

const (
	spanCulled = math.MinInt32
	spanWild   = math.MinInt32 + 1
	// wildCoord bounds the coordinates the integer ranges carry. A face
	// with a vertex beyond it takes floatBox, which converts the float
	// box as int conversion defines it for any coordinate.
	wildCoord = 0x1p30
	// edgeErr scales the forward error bound of the edge-function test;
	// see centreTol.
	edgeErr = 0x1p-40
)

// floatBox is the floor/ceil box of a face computed in floating point.
func floatBox(pa, pb, pc *projVert) (minX, maxX, minY, maxY int) {
	minX = int(math.Floor(math.Min(pa.px.X, math.Min(pb.px.X, pc.px.X))))
	maxX = int(math.Ceil(math.Max(pa.px.X, math.Max(pb.px.X, pc.px.X))))
	minY = int(math.Floor(math.Min(pa.px.Y, math.Min(pb.px.Y, pc.px.Y))))
	maxY = int(math.Ceil(math.Max(pa.px.Y, math.Max(pb.px.Y, pc.px.Y))))
	return
}

// centreTol is how far outside a face's bounding box a pixel centre must
// lie for the edge-function test to reject it for certain, given the
// face's integer extent (max of ⌈max⌉-⌊min⌋ over both axes) and its
// computed 1/area.
//
// Write M = extent+2, which bounds every |vertex - centre| coordinate
// over the floor/ceil box, a = |area| and Q = M²/a ≥ 1. The computed
// edge values and area are each within 8.2·u·M² of exact (u = 2⁻⁵³), so
// each computed barycentric, the third one included, is within
// δ = 99·u·Q² of exact. A centre at distance D from the triangle has a
// barycentric ≤ -D/(3M), so it is rejected once D > 3M·δ = 297·u·M·Q².
// edgeErr·M·Q² is 28× that. For a degenerate-looking face the bound
// exceeds a pixel and the whole floor/ceil box is tested, as before.
func centreTol(extent int, invArea float64) float64 {
	m := float64(extent + 2)
	q := m * m * math.Abs(invArea)
	return edgeErr * m * q * q
}

// trimSpan drops from [lo, hi] the end pixels whose centres lie more than
// tol outside [min(a, b, c), max(a, b, c)]. Only the first pixel of a
// floor/ceil range and the last two can lie outside, so the loops run at
// most once and twice.
func trimSpan(lo, hi int, a, b, c, tol float64) (int, int) {
	for lo <= hi {
		m := float64(lo) + 0.5
		if a-m <= tol || b-m <= tol || c-m <= tol {
			break
		}
		lo++
	}
	for lo <= hi {
		m := float64(hi) + 0.5
		if m-a <= tol || m-b <= tol || m-c <= tol {
			break
		}
		hi--
	}
	return lo, hi
}

// RenderMesh rasterizes m into the frame. Triangles with any vertex
// behind the near plane are culled (adequate for the outside-in capture
// rigs used throughout). With opt.Workers != 1 the screen is split into
// horizontal bands rasterized concurrently.
//
// A band rejects a face on its vertices' integer pixel ranges before any
// float work, edge-tests only the pixels centreTol cannot rule out, and
// loads a face's depths, vertices and normals at its first covered
// pixel, so the cost follows the faces that cover a pixel centre rather
// than every face that reaches the screen.
func RenderMesh(f *Frame, m *mesh.Mesh, opt MeshOptions) {
	if opt.Ambient == 0 {
		opt.Ambient = 0.25
	}
	light := opt.LightDir
	if light.LenSq() == 0 {
		// Headlight: from the surface toward the camera.
		light = f.Camera.CamToWorld().TransformDir(geom.V3(0, 0, -1))
	}
	if opt.Albedo == (pointcloud.Color{}) {
		opt.Albedo = pointcloud.Color{R: 0.8, G: 0.8, B: 0.8}
	}
	scratch := projPool.Get().(*[]projVert)
	defer projPool.Put(scratch)
	if cap(*scratch) < len(m.Vertices) {
		*scratch = make([]projVert, len(m.Vertices))
	}
	r := rasterizer{
		f: f, m: m, opt: opt, light: light.Normalize(),
		useVertexNormals: len(m.Normals) == len(m.Vertices),
		projs:            (*scratch)[:len(m.Vertices)],
	}
	h := f.Camera.Intr.Height
	workers := par.Resolve(opt.Workers)
	if workers == 1 {
		r.project(0, len(m.Vertices))
		r.band(0, h)
		return
	}
	// The parallel path shares a copy, so the serial path's rasterizer
	// stays on the stack.
	shared := r
	par.ForChunks(workers, len(m.Vertices), func(_, lo, hi int) { shared.project(lo, hi) })
	par.ForChunks(workers, h, func(_, lo, hi int) { shared.band(lo, hi) })
}

// projPool recycles the projected-vertex scratch across RenderMesh calls.
// The buffer lives only inside one call (ForChunks joins its workers
// before returning), so it is never kept on a Frame: the decode path
// renders every frame, and the capture rig makes a fresh Frame per camera.
var projPool = sync.Pool{New: func() any { return new([]projVert) }}

// rasterizer is one RenderMesh call's state.
type rasterizer struct {
	f                *Frame
	m                *mesh.Mesh
	opt              MeshOptions // Ambient and Albedo defaults applied
	light            geom.Vec3   // unit vector toward the light
	useVertexNormals bool
	projs            []projVert
}

// project fills projs[lo:hi]; each slot is written exactly once, so
// vertex ranges project concurrently.
func (r *rasterizer) project(lo, hi int) {
	const near = 1e-3
	cam := &r.f.Camera
	for i := lo; i < hi; i++ {
		c := cam.WorldToCam.TransformPoint(r.m.Vertices[i])
		if c.Z <= near {
			r.projs[i] = projVert{y0: spanCulled}
			continue
		}
		px, _, _ := cam.Intr.Project(c)
		p := projVert{px: px}
		if math.Abs(px.X) < wildCoord && math.Abs(px.Y) < wildCoord {
			p.x0, p.x1 = int32(math.Floor(px.X)), int32(math.Ceil(px.X))
			p.y0, p.y1 = int32(math.Floor(px.Y)), int32(math.Ceil(px.Y))
		} else {
			p.y0 = spanWild
		}
		r.projs[i] = p
	}
}

// band rasterizes rows [bandLo, bandHi). Every band walks the full face
// list in order, so per-pixel depth resolution matches the serial pass
// exactly, and bands never write the same pixel.
func (r *rasterizer) band(bandLo, bandHi int) {
	f, m, opt, projs := r.f, r.m, &r.opt, r.projs
	w := f.Camera.Intr.Width
	for fi, face := range m.Faces {
		pa, pb, pc := &projs[face.A], &projs[face.B], &projs[face.C]
		var minX, maxX, minY, maxY int
		wild := false
		if lo := min(pa.y0, pb.y0, pc.y0); lo > spanWild {
			minY, maxY = int(lo), int(max(pa.y1, pb.y1, pc.y1))
			if minY >= bandHi || maxY < bandLo {
				continue
			}
			minX, maxX = int(min(pa.x0, pb.x0, pc.x0)), int(max(pa.x1, pb.x1, pc.x1))
		} else if lo == spanCulled {
			continue
		} else {
			minX, maxX, minY, maxY = floatBox(pa, pb, pc)
			wild = true
		}
		extent := max(maxX-minX, maxY-minY)
		// Floor/ceil box, clipped to the frame and the band.
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
		// Skip the box's border pixels the edge test provably rejects.
		if !wild {
			tol := centreTol(extent, invArea)
			if minX, maxX = trimSpan(minX, maxX, x0, x1, x2, tol); minX > maxX {
				continue
			}
			if minY, maxY = trimSpan(minY, maxY, y0, y1, y2, tol); minY > maxY {
				continue
			}
		}

		// Shading set-up, done at the face's first covered pixel.
		covered := false
		var invZ0, invZ1, invZ2 float64
		var va, vb, vc, na, nb, nc geom.Vec3

		for y := minY; y <= maxY; y++ {
			fy := float64(y) + 0.5
			for x := minX; x <= maxX; x++ {
				fx := float64(x) + 0.5
				w0 := ((x1-fx)*(y2-fy) - (y1-fy)*(x2-fx)) * invArea
				if w0 < 0 {
					continue
				}
				w1 := ((x2-fx)*(y0-fy) - (y2-fy)*(x0-fx)) * invArea
				if w1 < 0 {
					continue
				}
				w2 := 1 - w0 - w1
				if w2 < 0 {
					continue
				}
				if !covered {
					covered = true
					va, vb, vc = m.Vertices[face.A], m.Vertices[face.B], m.Vertices[face.C]
					// The same transform project applied, so the same bits.
					toCam := &f.Camera.WorldToCam
					invZ0 = 1 / toCam.TransformPoint(va).Z
					invZ1 = 1 / toCam.TransformPoint(vb).Z
					invZ2 = 1 / toCam.TransformPoint(vc).Z
					if r.useVertexNormals {
						na, nb, nc = m.Normals[face.A], m.Normals[face.B], m.Normals[face.C]
					} else {
						n := m.FaceNormal(fi)
						na, nb, nc = n, n, n
					}
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

				col := opt.Albedo
				if opt.Shader != nil {
					col = opt.Shader(fi, [3]float64{b0, b1, b2}, pos, normal)
				}
				if !opt.Unlit {
					lam := math.Abs(normal.Dot(r.light))
					shade := opt.Ambient + (1-opt.Ambient)*lam
					col = pointcloud.Color{R: col.R * shade, G: col.G * shade, B: col.B * shade}
				}
				f.Depth[idx] = z
				f.Color[idx] = col
			}
		}
	}
}

// RenderCloud splats cloud points as size×size squares with z-buffering
// on the serial path (Workers 1).
func RenderCloud(f *Frame, c *pointcloud.Cloud, size int) {
	RenderCloudParallel(f, c, size, 1)
}

// RenderCloudParallel is RenderCloud over horizontal screen bands: each
// worker walks the full point list and clips splats to its rows, so
// output is byte-identical for every worker count (0 = GOMAXPROCS).
func RenderCloudParallel(f *Frame, c *pointcloud.Cloud, size, workers int) {
	if size < 1 {
		size = 1
	}
	w, h := f.Camera.Intr.Width, f.Camera.Intr.Height
	par.ForChunks(workers, h, func(_, bandLo, bandHi int) {
		for i, p := range c.Points {
			px, z, ok := f.Camera.ProjectWorld(p)
			if !ok {
				continue
			}
			col := pointcloud.Color{R: 0.8, G: 0.8, B: 0.8}
			if c.Colors != nil {
				col = c.Colors[i]
			}
			x0, y0 := int(px.X)-size/2, int(px.Y)-size/2
			yLo, yHi := y0, y0+size
			if yLo < bandLo {
				yLo = bandLo
			}
			if yHi > bandHi {
				yHi = bandHi
			}
			for y := yLo; y < yHi; y++ {
				for dx := 0; dx < size; dx++ {
					x := x0 + dx
					if x < 0 || x >= w {
						continue
					}
					idx := y*w + x
					if f.Depth[idx] != 0 && z >= f.Depth[idx] {
						continue
					}
					f.Depth[idx] = z
					f.Color[idx] = col
				}
			}
		}
	})
}
