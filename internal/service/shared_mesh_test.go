package service

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/core"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/transport"
)

// hashMesh folds a mesh's vertex bits and face indices into one word —
// every element is read, which is the point: under -race a concurrent
// writer to a shared cached mesh is a detected race.
func hashMesh(m *mesh.Mesh) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	for _, v := range m.Vertices {
		mix(math.Float64bits(v.X))
		mix(math.Float64bits(v.Y))
		mix(math.Float64bits(v.Z))
	}
	for _, f := range m.Faces {
		mix(uint64(f.A))
		mix(uint64(f.B))
		mix(uint64(f.C))
	}
	return h
}

// TestServiceSharedMeshReadOnly: the cache hands the same mesh to every
// tenant, so no decode may write to it. A hybrid tenant (which grafts a
// foveal patch over the peripheral mesh) and a keypoint tenant decode
// the same 50-pose stream concurrently while a third goroutine keeps
// re-reading every cached mesh; afterwards each cached mesh must still
// equal a cold reconstruction, and so must every keypoint output.
func TestServiceSharedMeshReadOnly(t *testing.T) {
	const frames, res = 50, 24
	codec := compress.LZR()
	anchor := geom.V3(0, 1.5, 0.1)
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	svc := New(Options{
		Model: testModel, Resolution: res, WarmStart: true,
		NewDecoder: func(o Options) core.Decoder {
			hy := &core.HybridDecoder{
				Model: o.Model, Codec: o.Codec, PeripheralResolution: o.Resolution,
				Selector: sel, WarmStart: o.WarmStart, Cache: o.Cache,
			}
			hy.SetGazeAnchor(anchor)
			return &core.AdaptiveDecoder{
				Keypoint: &core.KeypointDecoder{
					Model: o.Model, Codec: o.Codec, Resolution: o.Resolution,
					WarmStart: o.WarmStart, Cache: o.Cache,
				},
				Hybrid: hy,
			}
		},
		Cache: &avatar.MeshCache{Capacity: 2 * frames},
	})
	defer svc.Close()

	motion := body.Talking(nil)
	poses := make([]*body.Params, frames)
	for i := range poses {
		poses[i] = motion.At(float64(i) / 30)
	}
	patch := mesh.UnitSphere(1)
	patch.Transform(geom.Translation(anchor).Mul(geom.Scaling(geom.V3(0.1, 0.1, 0.1))))
	foveal := transport.Frame{
		Type: transport.TypeSemantic, Channel: core.ChanFovealMesh,
		Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
		Payload: dracogo.EncodeMesh(patch, dracogo.Options{PositionBits: 14}),
	}

	kpOut := make([]*mesh.Mesh, frames)
	done := make(chan struct{})
	var tenants, reader sync.WaitGroup
	for _, hybrid := range []bool{true, false} {
		name := "keypoint"
		if hybrid {
			name = "hybrid"
		}
		st, err := svc.Admit(name)
		if err != nil {
			t.Fatal(err)
		}
		tenants.Add(1)
		go func(hybrid bool) {
			defer tenants.Done()
			for i, p := range poses {
				raw := wireRaw(codec, p)
				if hybrid {
					raw.Frames[0].Flags &^= transport.FlagEndOfFrame
					raw.Frames = append(raw.Frames, foveal)
				}
				data, err := st.Decode(context.Background(), raw)
				if err != nil {
					t.Errorf("%s frame %d: %v", st.ID(), i, err)
					return
				}
				if hybrid {
					hashMesh(data.Mesh)
				} else {
					kpOut[i] = data.Mesh
				}
			}
		}(hybrid)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		rec := &avatar.Reconstructor{Model: testModel, Resolution: res, Cache: svc.Cache()}
		for {
			for _, p := range poses {
				select {
				case <-done:
					return
				default:
				}
				hashMesh(rec.Reconstruct(p))
			}
		}
	}()
	tenants.Wait()
	close(done)
	reader.Wait()

	cached := &avatar.Reconstructor{Model: testModel, Resolution: res, Cache: svc.Cache()}
	cold := &avatar.Reconstructor{Model: testModel, Resolution: res}
	for i, p := range poses {
		want := cold.Reconstruct(p)
		if !reflect.DeepEqual(cached.Reconstruct(p), want) {
			t.Fatalf("pose %d: cached mesh no longer equals a cold reconstruction", i)
		}
		if kpOut[i] != nil && !reflect.DeepEqual(kpOut[i], want) {
			t.Fatalf("pose %d: keypoint tenant's mesh differs from a cold reconstruction", i)
		}
	}
}
