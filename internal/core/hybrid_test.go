package core

import (
	"reflect"
	"strings"
	"testing"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/transport"
)

// referenceFovealSubmesh is the encoder's foveal cut as it was before
// fovealCut: copy every vertex, split the face list, compact. Kept as the
// byte-identity reference.
func referenceFovealSubmesh(m *mesh.Mesh, sel gaze.FovealSelector, anchor *geom.Vec3) *mesh.Mesh {
	if m == nil || anchor == nil {
		return nil
	}
	centroids := make([]geom.Vec3, len(m.Faces))
	for i := range m.Faces {
		centroids[i] = m.FaceCentroid(i)
	}
	fovealFaces, _ := sel.SplitMesh(centroids, *anchor)
	if len(fovealFaces) == 0 {
		return nil
	}
	sub := &mesh.Mesh{Vertices: append([]geom.Vec3(nil), m.Vertices...)}
	for _, fi := range fovealFaces {
		sub.Faces = append(sub.Faces, m.Faces[fi])
	}
	sub.CompactVertices()
	return sub
}

// referenceGraft is the decoder's graft as it was before fovealCut:
// filter the peripheral faces, CompactVertices in place, Merge. It works
// on its own copy of peripheral, as the decoder did when every cache hit
// was a clone.
func referenceGraft(peripheral, foveal *mesh.Mesh, sel gaze.FovealSelector, anchor *geom.Vec3) *mesh.Mesh {
	peripheral = peripheral.Clone()
	if foveal != nil && anchor != nil {
		kept := &mesh.Mesh{Vertices: peripheral.Vertices}
		for i, face := range peripheral.Faces {
			if !sel.InFovea(peripheral.FaceCentroid(i), *anchor) {
				kept.Faces = append(kept.Faces, face)
			}
		}
		kept.CompactVertices()
		kept.Merge(foveal)
		return kept
	}
	if foveal != nil {
		peripheral.Merge(foveal)
	}
	return peripheral
}

// hybridWire packs a pose (uncompressed) and a foveal payload into the
// wire frames a hybrid decoder sees.
func hybridWire(p *body.Params, fovealPayload []byte) []transport.Frame {
	return []transport.Frame{
		{Type: transport.TypeSemantic, Channel: ChanKeypointData, Flags: transport.FlagKeyframe, Payload: p.Marshal()},
		{
			Type: transport.TypeSemantic, Channel: ChanFovealMesh,
			Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
			Payload: fovealPayload,
		},
	}
}

// TestHybridCutMatchesReference holds the one-pass exact-size cut to the
// old filter → CompactVertices → Merge (decoder) and copy → split →
// compact (encoder) over a 50-frame motion: with the anchor on the face,
// with no decoder anchor (the clone-and-merge branch), with an empty
// fovea (the decoder hands back the shared peripheral mesh itself), and
// with everything foveal. The decoder runs over a mesh cache, so the
// peripheral mesh it cuts is the cached one; the reference reconstructs
// its own.
func TestHybridCutMatchesReference(t *testing.T) {
	face := geom.V3(0, 1.5, 0.1)
	far := geom.V3(5, 5, 5)
	narrow := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	cases := []struct {
		name      string
		sel       gaze.FovealSelector
		encAnchor *geom.Vec3
		decAnchor *geom.Vec3
	}{
		{"anchor-on-face", narrow, &face, &face},
		{"no-decoder-anchor", narrow, &face, nil},
		{"empty-fovea", narrow, &far, &far},
		{"all-foveal", gaze.FovealSelector{}, &face, &face},
	}
	const frames, res = 50, 16
	motion := body.Talking(nil)
	opts := dracogo.Options{PositionBits: 14}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := &HybridEncoder{Selector: tc.sel, MeshOptions: opts}
			enc.SetGazeAnchor(*tc.encAnchor)
			cache := &avatar.MeshCache{Capacity: frames}
			dec := &HybridDecoder{Model: testModel, PeripheralResolution: res, Selector: tc.sel, WarmStart: true, Cache: cache}
			if tc.decAnchor != nil {
				dec.SetGazeAnchor(*tc.decAnchor)
			}
			refRec := &avatar.Reconstructor{Model: testModel, Resolution: res}
			cached := &avatar.Reconstructor{Model: testModel, Resolution: res, Cache: cache}

			grafted := 0
			for i := 0; i < frames; i++ {
				p := motion.At(float64(i) / 30)
				truth := testModel.Mesh(p)
				truthBefore := truth.Clone()

				sub := enc.fovealSubmesh(truth)
				if want := referenceFovealSubmesh(truthBefore, tc.sel, tc.encAnchor); !reflect.DeepEqual(sub, want) {
					t.Fatalf("frame %d: foveal submesh differs from reference", i)
				}
				if !reflect.DeepEqual(truth, truthBefore) {
					t.Fatalf("frame %d: fovealSubmesh modified its input", i)
				}

				var payload []byte
				var foveal *mesh.Mesh
				if sub != nil {
					payload = dracogo.EncodeMesh(sub, opts)
					var err error
					if foveal, err = dracogo.DecodeMesh(payload); err != nil {
						t.Fatal(err)
					}
					grafted++
				}
				peripheral := refRec.Reconstruct(p)
				want := referenceGraft(peripheral, foveal, tc.sel, tc.decAnchor)
				got, err := dec.Decode(hybridWire(p, payload))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Mesh, want) {
					t.Fatalf("frame %d: grafted mesh differs from reference (%d/%d verts, %d/%d faces)", i,
						len(got.Mesh.Vertices), len(want.Vertices), len(got.Mesh.Faces), len(want.Faces))
				}
				// The graft must leave the cached peripheral mesh as
				// reconstructed.
				if shared := cached.Reconstruct(p); !reflect.DeepEqual(shared, peripheral) {
					t.Fatalf("frame %d: decode modified the cached peripheral mesh", i)
				} else if foveal == nil && got.Mesh != shared {
					t.Fatalf("frame %d: no fovea, but the decoder copied the cached mesh", i)
				}
			}
			if empty := tc.name == "empty-fovea"; empty != (grafted == 0) {
				t.Fatalf("%d of %d frames carried a foveal patch", grafted, frames)
			}
		})
	}
}

// TestHybridDecoderCompressedWithoutCodec: a compressed pose payload
// reaching a hybrid decoder built without a codec is an error, as it is
// for KeypointDecoder — it used to be a nil-interface panic.
func TestHybridDecoderCompressedWithoutCodec(t *testing.T) {
	p := body.Talking(nil).At(0.2)
	frames := hybridWire(p, nil)
	frames[0].Flags |= transport.FlagCompressed
	frames[0].Payload = compress.LZR().Encode(p.Marshal())
	dec := &HybridDecoder{Model: testModel, PeripheralResolution: 16}
	_, err := dec.Decode(frames)
	if err == nil || !strings.Contains(err.Error(), "compressed payload but no codec configured") {
		t.Fatalf("err = %v, want the no-codec error", err)
	}
}

// TestHybridGraftAllocs pins the graft at three allocations per frame —
// the mesh header and its two exact-size arrays; the marks live in
// decoder-owned scratch. Run on a non-race line (make alloc-check).
func TestHybridGraftAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	anchor := geom.V3(0, 1.5, 0.1)
	p := body.Talking(nil).At(0.2)
	peripheral := (&avatar.Reconstructor{Model: testModel, Resolution: 32}).Reconstruct(p)
	foveal := referenceFovealSubmesh(testModel.Mesh(p), sel, &anchor)
	if foveal == nil {
		t.Fatal("fixture has no foveal region")
	}
	var cut fovealCut
	cut.apply(peripheral, sel, anchor, false, foveal) // size the scratch
	var out *mesh.Mesh
	if n := testing.AllocsPerRun(20, func() {
		out = cut.apply(peripheral, sel, anchor, false, foveal)
	}); n > 3 {
		t.Fatalf("graft allocates %.0f objects per frame, want ≤ 3", n)
	}
	if cap(out.Vertices) != len(out.Vertices) || cap(out.Faces) != len(out.Faces) {
		t.Fatalf("grafted mesh carries slack: verts %d/%d faces %d/%d",
			len(out.Vertices), cap(out.Vertices), len(out.Faces), cap(out.Faces))
	}
}
