package avatar

import (
	"reflect"
	"testing"

	"semholo/internal/body"
	"semholo/internal/metrics"
)

// TestSkinnedChamferNoWorseThanExtracted is the quality gate for posing a
// once-extracted rest surface instead of extracting every frame: over 50
// frames of each motion at two resolutions, the skinned mesh's chamfer
// against the ground-truth body.Model.Mesh must be no worse than the
// extracted mesh's on average, and within 5 % of it on every frame.
func TestSkinnedChamferNoWorseThanExtracted(t *testing.T) {
	if testing.Short() {
		t.Skip("300 extractions; skipped in -short")
	}
	const n = 2000
	for _, mo := range []struct {
		name string
		m    body.Motion
	}{
		{"talking", body.Talking(nil)},
		{"walking", body.Walking(nil)},
		{"waving", body.Waving(nil)},
	} {
		for _, res := range []int{32, 64} {
			skin := &Reconstructor{Model: fitModel, Resolution: res}
			extract := &Reconstructor{Model: fitModel, Resolution: res}
			var sumSkin, sumExtract float64
			frames := motionFrames(mo.m, 50, 1.0/30)
			for fi, p := range frames {
				truth := fitModel.Mesh(p)
				cs := metrics.CompareMeshes(skin.Skin(p), truth, n, 0).Chamfer
				ce := metrics.CompareMeshes(extract.Reconstruct(p), truth, n, 0).Chamfer
				if cs > 1.05*ce {
					t.Errorf("%s res %d frame %d: skinned chamfer %.2f mm > extracted %.2f mm + 5%%",
						mo.name, res, fi, cs*1e3, ce*1e3)
				}
				sumSkin += cs
				sumExtract += ce
			}
			ms, me := sumSkin/float64(len(frames))*1e3, sumExtract/float64(len(frames))*1e3
			t.Logf("%s res %d: mean chamfer skinned %.2f mm, extracted %.2f mm", mo.name, res, ms, me)
			if ms > me {
				t.Errorf("%s res %d: mean skinned chamfer %.2f mm > extracted %.2f mm", mo.name, res, ms, me)
			}
		}
	}
}

// TestSkinDeterministic: a skinned mesh is a function of the pose and the
// geometry knobs alone — identical at any worker count, through a mesh
// cache or not, and after a resolution change identical to what a fresh
// reconstructor makes at the new resolution.
func TestSkinDeterministic(t *testing.T) {
	frames := motionFrames(body.Waving(nil), 20, 1.0/30)
	serial := &Reconstructor{Model: fitModel, Resolution: 24, Workers: 1}
	parallel := &Reconstructor{Model: fitModel, Resolution: 24, Workers: 4}
	cached := &Reconstructor{Model: fitModel, Resolution: 24, Workers: 4, Cache: &MeshCache{}}
	for fi, p := range frames {
		want := serial.Skin(p)
		if got := parallel.Skin(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: workers 4 differ from workers 1", fi)
		}
		if got := cached.Skin(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: cached skin differs from solo", fi)
		}
	}

	serial.Resolution = 32
	fresh := &Reconstructor{Model: fitModel, Resolution: 32}
	for fi, p := range frames[:5] {
		if got, want := serial.Skin(p), fresh.Skin(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: skin after a resolution change differs from a fresh reconstructor", fi)
		}
	}
}

// TestSkinAllocs pins a steady-state skinned frame without a cache at two
// allocations — the mesh header and its vertex array; the faces are the
// canonical surface's own. Run on a non-race line (make alloc-check).
func TestSkinAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	rec := &Reconstructor{Model: fitModel, Resolution: 32, Workers: 1}
	p := body.Talking(nil).At(0.7)
	first := rec.Skin(p)
	m := first
	if n := testing.AllocsPerRun(100, func() { m = rec.Skin(p) }); n > 2 {
		t.Fatalf("skinned frame allocates %.0f objects, want ≤ 2", n)
	}
	if &m.Faces[0] != &first.Faces[0] {
		t.Fatal("skinned frames do not share the canonical faces")
	}
}
