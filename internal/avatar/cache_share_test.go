package avatar_test

// The shared-mesh contract, tested from outside the package so the real
// consumers (the core decoders) can be driven against one cache.

import (
	"reflect"
	"sync"
	"testing"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/compress/dracogo"
	"semholo/internal/core"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/transport"
)

// TestMeshCacheExactHitAndIsolation: the computing caller, every
// single-flight waiter and every later hit get the same skinned
// *mesh.Mesh, and that mesh is bit-for-bit what a solo Skin produces —
// still, after a hybrid and a keypoint decoder sharing the cache have
// decoded a stream that keeps returning to its pose. Isolation is by
// contract (consumers only read; the hybrid graft writes a fresh mesh),
// not by copying. A Reconstruct caller on the same cache gets its own
// extracted mesh for that pose, never the decoders' skinned one.
func TestMeshCacheExactHitAndIsolation(t *testing.T) {
	const res = 24
	model := body.NewModel(nil, body.ModelOptions{Detail: 1})
	motion := body.Talking(nil)
	p := motion.At(0.7)
	var c metrics.ReconCounters
	cache := &avatar.MeshCache{Counters: &c}

	const callers = 6
	got := make([]*mesh.Mesh, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := &avatar.Reconstructor{Model: model, Resolution: res, Cache: cache}
			got[i] = rec.Skin(p)
		}(i)
	}
	wg.Wait()
	shared := got[0]
	for i, m := range got {
		if m != shared {
			t.Fatalf("caller %d got a different mesh pointer", i)
		}
	}
	if s := c.Snapshot(); s.MeshMisses != 1 || s.MeshHits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", s.MeshHits, s.MeshMisses, callers-1)
	}
	solo := (&avatar.Reconstructor{Model: model, Resolution: res}).Skin(p)
	if !reflect.DeepEqual(shared, solo) {
		t.Fatal("cached mesh differs from a solo skin")
	}

	anchor := geom.V3(0, 1.5, 0.1)
	patch := mesh.UnitSphere(1)
	patch.Transform(geom.Translation(anchor).Mul(geom.Scaling(geom.V3(0.1, 0.1, 0.1))))
	payload := dracogo.EncodeMesh(patch, dracogo.Options{PositionBits: 14})
	hy := &core.HybridDecoder{
		Model: model, PeripheralResolution: res, Cache: cache,
		Selector: gaze.FovealSelector{Radius: 8, ViewDistance: 2},
	}
	hy.SetGazeAnchor(anchor)
	kp := &core.KeypointDecoder{Model: model, Resolution: res, Cache: cache}
	for i := 0; i < 20; i++ {
		q := p
		if i%2 == 1 {
			q = motion.At(float64(i) / 30)
		}
		pose := transport.Frame{Type: transport.TypeSemantic, Channel: core.ChanKeypointData, Flags: transport.FlagKeyframe, Payload: q.Marshal()}
		fov := transport.Frame{
			Type: transport.TypeSemantic, Channel: core.ChanFovealMesh,
			Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
			Payload: payload,
		}
		hd, err := hy.Decode([]transport.Frame{pose, fov})
		if err != nil {
			t.Fatal(err)
		}
		kd, err := kp.Decode([]transport.Frame{pose})
		if err != nil {
			t.Fatal(err)
		}
		if q == p {
			if kd.Mesh != shared {
				t.Fatalf("decode %d: keypoint decoder did not get the shared mesh", i)
			}
			if hd.Mesh == shared || len(hd.Mesh.Vertices) == len(shared.Vertices) {
				t.Fatalf("decode %d: hybrid decoder returned the peripheral mesh ungrafted", i)
			}
		}
	}
	if !reflect.DeepEqual(shared, solo) {
		t.Fatal("a decode wrote to the shared cached mesh")
	}

	// The same pose through Reconstruct is a separate entry: the
	// extracted mesh, computed once and then shared among extractors.
	before := c.Snapshot()
	ex := &avatar.Reconstructor{Model: model, Resolution: res, Cache: cache}
	extracted := ex.Reconstruct(p)
	cold := (&avatar.Reconstructor{Model: model, Resolution: res}).Reconstruct(p)
	if extracted == shared || !reflect.DeepEqual(extracted, cold) {
		t.Fatal("a Reconstruct caller did not get the extracted mesh")
	}
	if ex.Reconstruct(p) != extracted {
		t.Fatal("a repeated Reconstruct did not hit its own entry")
	}
	if kd, err := kp.Decode([]transport.Frame{{Type: transport.TypeSemantic, Channel: core.ChanKeypointData, Flags: transport.FlagKeyframe, Payload: p.Marshal()}}); err != nil || kd.Mesh != shared {
		t.Fatalf("after a Reconstruct of its pose the decoder lost its skinned mesh (err %v)", err)
	}
	if s := c.Snapshot(); s.MeshMisses != before.MeshMisses+1 || s.MeshHits != before.MeshHits+2 {
		t.Fatalf("hits +%d misses +%d, want +2/+1", s.MeshHits-before.MeshHits, s.MeshMisses-before.MeshMisses)
	}
}
