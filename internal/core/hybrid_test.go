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
	"semholo/internal/metrics"
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
// peripheral mesh it cuts is the cached skinned one; the reference skins
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
			cache := &avatar.MeshCache{}
			dec := &HybridDecoder{Model: testModel, PeripheralResolution: res, Selector: tc.sel, Cache: cache}
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
				peripheral := refRec.Skin(p)
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
				// skinned.
				if shared := cached.Skin(p); !reflect.DeepEqual(shared, peripheral) {
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

// TestHybridDecodeFailedFrameSkinsNothing: a frame whose foveal payload
// does not decode is an error before any skinning — the shared cache
// sees no lookup and stays empty.
func TestHybridDecodeFailedFrameSkinsNothing(t *testing.T) {
	counters := &metrics.ReconCounters{}
	dec := &HybridDecoder{
		Model: testModel, PeripheralResolution: 16,
		Cache: &avatar.MeshCache{Counters: counters}, Counters: counters,
	}
	if _, err := dec.Decode(hybridWire(body.Talking(nil).At(0.2), []byte("not a mesh"))); err == nil {
		t.Fatal("garbage foveal payload decoded")
	}
	if s := counters.Snapshot(); s.MeshHits+s.MeshMisses+s.Frames != 0 {
		t.Fatalf("failed frame skinned: %+v", s)
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
	cut.apply(nil, peripheral, sel, anchor, false, foveal) // size the scratch
	var out *mesh.Mesh
	if n := testing.AllocsPerRun(20, func() {
		out = cut.apply(nil, peripheral, sel, anchor, false, foveal)
	}); n > 3 {
		t.Fatalf("graft allocates %.0f objects per frame, want ≤ 3", n)
	}
	if cap(out.Vertices) != len(out.Vertices) || cap(out.Faces) != len(out.Faces) {
		t.Fatalf("grafted mesh carries slack: verts %d/%d faces %d/%d",
			len(out.Vertices), cap(out.Vertices), len(out.Faces), cap(out.Faces))
	}
}

// TestFovealEncodeAllocs pins the rung-2 encode: once warm, the cut into
// the encoder's reused submesh and EncodeMesh over it make one
// allocation, the exact-size payload. Run on a non-race line (make
// alloc-check).
func TestFovealEncodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	enc := &HybridEncoder{Selector: gaze.FovealSelector{Radius: 8, ViewDistance: 2}, MeshOptions: dracogo.Options{PositionBits: 14}}
	enc.SetGazeAnchor(geom.V3(0, 1.5, 0.1))
	truth := testModel.Mesh(body.Talking(nil).At(0.2))
	var payload []byte
	encode := func() { payload = dracogo.EncodeMesh(enc.fovealSubmesh(truth), enc.MeshOptions) }
	encode()
	if n := testing.AllocsPerRun(20, encode); n != 1 {
		t.Fatalf("foveal cut + EncodeMesh make %.0f allocations per frame, want 1", n)
	}
	if cap(payload) != len(payload) {
		t.Fatalf("payload carries slack: len %d cap %d", len(payload), cap(payload))
	}
}

// TestHybridDecodePatchAllocs pins the decoder's foveal patch into its
// own scratch: decoding a frame with a patch costs at most four
// allocations more than the same frame without one — lzr's decompressed
// stream and the graft's three (mesh header and two exact-size arrays)
// — and the patch's arrays stay put from frame to frame. Run on a
// non-race line (make alloc-check).
func TestHybridDecodePatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	anchor := geom.V3(0, 1.5, 0.1)
	p := body.Talking(nil).At(0.2)
	sub := referenceFovealSubmesh(testModel.Mesh(p), sel, &anchor)
	if sub == nil {
		t.Fatal("fixture has no foveal region")
	}
	withPatch := hybridWire(p, dracogo.EncodeMesh(sub, dracogo.Options{PositionBits: 14}))
	without := hybridWire(p, nil)
	dec := &HybridDecoder{Model: testModel, PeripheralResolution: 16, Selector: sel, Workers: 1}
	dec.SetGazeAnchor(anchor)
	decode := func(frames []transport.Frame) func() {
		return func() {
			if _, err := dec.Decode(frames); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode(withPatch)()
	verts, faces := &dec.patch.Vertices[0], &dec.patch.Faces[0]
	base := testing.AllocsPerRun(20, decode(without))
	if n := testing.AllocsPerRun(20, decode(withPatch)); n-base > 4 {
		t.Fatalf("a foveal patch costs %.0f allocations per frame (%.0f with, %.0f without), want ≤ 4", n-base, n, base)
	}
	if &dec.patch.Vertices[0] != verts || &dec.patch.Faces[0] != faces {
		t.Fatal("the decoder reallocated its patch arrays in steady state")
	}
}
