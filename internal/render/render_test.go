package render

import (
	"math"
	"sync/atomic"
	"testing"

	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/pointcloud"
)

func sphereCam(eye geom.Vec3, res int) geom.Camera {
	return geom.NewLookAtCamera(
		geom.IntrinsicsFromFOV(res, res, math.Pi/3),
		eye, geom.Vec3{}, geom.V3(0, -1, 0))
}

func TestRenderSphereCoverageAndDepth(t *testing.T) {
	cam := sphereCam(geom.V3(0, 0, -3), 128)
	f := NewFrame(cam)
	RenderMesh(f, mesh.UnitSphere(3), MeshOptions{})

	// Center pixel: depth should be distance to the front of the sphere.
	centerDepth := f.Depth[64*128+64]
	if math.Abs(centerDepth-2) > 0.02 {
		t.Errorf("center depth %v, want ≈ 2", centerDepth)
	}
	// Corner pixels: background.
	if f.Depth[0] != 0 {
		t.Error("corner pixel hit something")
	}
	// Hit fraction: sphere of angular radius asin(1/3) in 60° FOV.
	hits := 0
	for _, d := range f.Depth {
		if d > 0 {
			hits++
		}
	}
	frac := float64(hits) / float64(len(f.Depth))
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("hit fraction %.2f implausible", frac)
	}
}

func TestRenderDepthMatchesAnalytic(t *testing.T) {
	cam := sphereCam(geom.V3(0, 0, -3), 64)
	f := NewFrame(cam)
	RenderMesh(f, mesh.UnitSphere(4), MeshOptions{})
	// Every hit pixel's unprojected point must lie near the unit sphere.
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			d := f.Depth[y*64+x]
			if d == 0 {
				continue
			}
			p := cam.UnprojectWorld(geom.V2(float64(x)+0.5, float64(y)+0.5), d)
			if math.Abs(p.Len()-1) > 0.05 {
				t.Fatalf("pixel (%d,%d) unprojects to radius %v", x, y, p.Len())
			}
		}
	}
}

func TestZBufferOrdering(t *testing.T) {
	cam := sphereCam(geom.V3(0, 0, -5), 64)
	f := NewFrame(cam)
	near := mesh.UnitSphere(2)
	near.Transform(geom.Scaling(geom.V3(0.5, 0.5, 0.5)))
	near.Transform(geom.Translation(geom.V3(0, 0, -2))) // closer to camera
	far := mesh.UnitSphere(2)

	RenderMesh(f, far, MeshOptions{Albedo: pointcloud.Color{R: 1}})
	RenderMesh(f, near, MeshOptions{Albedo: pointcloud.Color{G: 1}})
	// Center pixel must show the near (green) sphere.
	c := f.At(32, 32)
	if c.G <= c.R {
		t.Errorf("z-buffer failed: center color %+v", c)
	}

	// Render order must not matter.
	f2 := NewFrame(cam)
	RenderMesh(f2, near, MeshOptions{Albedo: pointcloud.Color{G: 1}})
	RenderMesh(f2, far, MeshOptions{Albedo: pointcloud.Color{R: 1}})
	c2 := f2.At(32, 32)
	if c2.G <= c2.R {
		t.Errorf("z-buffer order-dependent: %+v", c2)
	}
}

func TestShaderReceivesSurfaceData(t *testing.T) {
	cam := sphereCam(geom.V3(0, 0, -3), 64)
	f := NewFrame(cam)
	var called atomic.Bool // the shader runs on RenderMesh's worker goroutines
	RenderMesh(f, mesh.UnitSphere(2), MeshOptions{
		Unlit: true,
		Shader: func(fi int, bary [3]float64, pos, normal geom.Vec3) pointcloud.Color {
			called.Store(true)
			if math.Abs(bary[0]+bary[1]+bary[2]-1) > 1e-6 {
				t.Errorf("barycentrics sum to %v", bary[0]+bary[1]+bary[2])
			}
			if math.Abs(pos.Len()-1) > 0.05 {
				t.Errorf("shader pos %v off surface", pos)
			}
			return pointcloud.Color{R: 1}
		},
	})
	if !called.Load() {
		t.Fatal("shader never called")
	}
}

func TestShadingGradient(t *testing.T) {
	// With a headlight, the sphere silhouette must be darker than the
	// center (grazing normals).
	cam := sphereCam(geom.V3(0, 0, -3), 128)
	f := NewFrame(cam)
	RenderMesh(f, mesh.UnitSphere(4), MeshOptions{})
	center := f.At(64, 64)
	// Find a lit pixel near the silhouette.
	var edge pointcloud.Color
	found := false
	for x := 64; x < 128; x++ {
		if f.Depth[64*128+x] > 0 && f.Depth[64*128+x+1] == 0 {
			edge = f.At(x, 64)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no silhouette found")
	}
	if edge.R >= center.R {
		t.Errorf("edge %.3f not darker than center %.3f", edge.R, center.R)
	}
}

func TestRenderCloudSplats(t *testing.T) {
	cam := sphereCam(geom.V3(0, 0, -3), 64)
	f := NewFrame(cam)
	c := pointcloud.New(0)
	red := pointcloud.Color{R: 1}
	c.Append(geom.V3(0, 0, 0), &red, nil)
	RenderCloud(f, c, 3)
	hits := 0
	for _, d := range f.Depth {
		if d > 0 {
			hits++
		}
	}
	if hits != 9 {
		t.Errorf("3×3 splat covered %d pixels", hits)
	}
	if f.At(32, 32).R != 1 {
		t.Errorf("center color %+v", f.At(32, 32))
	}
}

func TestDepthViewRoundTrip(t *testing.T) {
	cam := sphereCam(geom.V3(0, 0, -3), 64)
	f := NewFrame(cam)
	RenderMesh(f, mesh.UnitSphere(3), MeshOptions{})
	view := f.DepthView()
	cloud := view.Unproject(1)
	if cloud.Len() == 0 {
		t.Fatal("no points from rendered view")
	}
	for _, p := range cloud.Points {
		if math.Abs(p.Len()-1) > 0.05 {
			t.Fatalf("fused point %v off the rendered sphere", p)
		}
	}
}

func TestImageConversion(t *testing.T) {
	cam := sphereCam(geom.V3(0, 0, -3), 32)
	f := NewFrame(cam)
	RenderMesh(f, mesh.UnitSphere(2), MeshOptions{Albedo: pointcloud.Color{R: 1, G: 0.5}})
	img := f.Image()
	if img.Bounds().Dx() != 32 || img.Bounds().Dy() != 32 {
		t.Fatal("wrong image size")
	}
	r, g, _, a := img.At(16, 16).RGBA()
	if a != 0xFFFF || r == 0 || g == 0 {
		t.Errorf("center pixel rgba = %v %v _ %v", r, g, a)
	}
}

func BenchmarkRenderSphere128(b *testing.B) {
	cam := sphereCam(geom.V3(0, 0, -3), 128)
	f := NewFrame(cam)
	m := mesh.UnitSphere(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Clear()
		RenderMesh(f, m, MeshOptions{})
	}
}
