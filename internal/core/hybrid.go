package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/transport"
)

// HybridEncoder implements the foveated hybrid scheme of §3.1: the
// region around the viewer's gaze gets the compressed ground-truth mesh
// (full quality), while the periphery travels as keypoints only and is
// reconstructed with limited refinement at the receiver. The gaze anchor
// arrives from the receiver over the control channel (the Sender runtime
// wires it through SetGazeAnchor); the foveal radius is the
// bandwidth-versus-reconstruction-cost trade-off knob of the ablation.
type HybridEncoder struct {
	Keypoint *KeypointEncoder
	Selector gaze.FovealSelector
	// MeshOptions tunes foveal submesh compression.
	MeshOptions dracogo.Options

	// anchor is written by the control-plane goroutine (gaze reports
	// arriving over the session) while Encode reads it from the pipeline
	// goroutine, so it must be an atomic swap, not a plain field; nil
	// means no gaze report has arrived yet.
	anchor atomic.Pointer[geom.Vec3]
	cut    fovealCut
	// sub is the foveal submesh, cut anew each frame into the same
	// arrays: EncodeMesh only reads it, and nothing keeps it.
	sub mesh.Mesh
}

// SetGazeAnchor updates the world-space point the remote viewer is
// looking at (from receiver gaze reports). Safe to call concurrently
// with Encode.
func (e *HybridEncoder) SetGazeAnchor(p geom.Vec3) {
	e.anchor.Store(&p)
}

// Mode implements Encoder.
func (e *HybridEncoder) Mode() Mode { return ModeHybrid }

// Encode implements Encoder.
func (e *HybridEncoder) Encode(c capture.Capture) (EncodedFrame, error) {
	if e.Keypoint == nil {
		return EncodedFrame{}, fmt.Errorf("core: hybrid encoder missing keypoint encoder")
	}
	kp, err := e.Keypoint.Encode(c)
	if err != nil {
		return EncodedFrame{}, err
	}
	// Strip EndOfFrame from the keypoint payloads in place (they are
	// this encoder's own); the foveal mesh closes the frame.
	for i := range kp.Channels {
		kp.Channels[i].Flags &^= transport.FlagEndOfFrame
	}
	return EncodedFrame{Channels: append(kp.Channels, e.fovealChannel(c.Mesh))}, nil
}

// fovealChannel is the channel that closes a hybrid frame — HybridEncoder
// and the semantic ladder's rung 2 both build it here: m's foveal
// submesh, Draco-coded, or an empty payload when no face of m falls
// inside the fovea (or no gaze report has arrived yet).
func (e *HybridEncoder) fovealChannel(m *mesh.Mesh) ChannelPayload {
	var payload []byte
	if foveal := e.fovealSubmesh(m); foveal != nil {
		payload = dracogo.EncodeMesh(foveal, e.MeshOptions)
	}
	return ChannelPayload{
		Channel: ChanFovealMesh,
		Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
		Payload: payload,
	}
}

// fovealSubmesh extracts the faces of m inside the foveal region (nil
// when there are none). m is only read. The result is the encoder's
// scratch, valid until the next call.
func (e *HybridEncoder) fovealSubmesh(m *mesh.Mesh) *mesh.Mesh {
	anchor := e.anchor.Load()
	if m == nil || anchor == nil {
		return nil
	}
	sub := e.cut.apply(&e.sub, m, e.Selector, *anchor, true, nil)
	if len(sub.Faces) == 0 {
		return nil
	}
	return sub
}

// fovealCut is the reusable scratch for cutting a mesh along the foveal
// boundary without touching the source (which may be a cached mesh other
// streams are reading).
type fovealCut struct {
	remap []int32 // per source vertex: 0 = unused, 1 = used, then its new index
	faces []int32 // selected source face indices
}

// apply returns a mesh holding the faces of src whose centroid's
// InFovea equals inside, their vertices compacted in source order,
// followed by patch's geometry when patch is non-nil — the result of
// filtering src's faces, CompactVertices, then Merge(patch), in one
// pass. Only positions and faces are carried over. With dst nil the
// result is a fresh exact-size mesh (three allocations); otherwise it is
// dst, refilled in its own arrays, which grow only when too short.
func (c *fovealCut) apply(dst, src *mesh.Mesh, sel gaze.FovealSelector, anchor geom.Vec3, inside bool, patch *mesh.Mesh) *mesh.Mesh {
	if cap(c.remap) < len(src.Vertices) {
		c.remap = make([]int32, len(src.Vertices))
	}
	remap := c.remap[:len(src.Vertices)]
	clear(remap)
	faces := c.faces[:0]
	nv := 0
	fovea := sel.Around(anchor)
	for i, f := range src.Faces {
		if fovea.In(src.FaceCentroid(i)) != inside {
			continue
		}
		faces = append(faces, int32(i))
		for _, v := range [3]int{f.A, f.B, f.C} {
			if remap[v] == 0 {
				remap[v] = 1
				nv++
			}
		}
	}
	c.faces = faces

	extraV, extraF := 0, 0
	if patch != nil {
		extraV, extraF = len(patch.Vertices), len(patch.Faces)
	}
	out := dst
	if out == nil {
		out = &mesh.Mesh{
			Vertices: make([]geom.Vec3, nv, nv+extraV),
			Faces:    make([]mesh.Face, len(faces), len(faces)+extraF),
		}
	} else {
		*out = mesh.Mesh{
			Vertices: slices.Grow(out.Vertices[:0], nv+extraV)[:nv],
			Faces:    slices.Grow(out.Faces[:0], len(faces)+extraF)[:len(faces)],
		}
	}
	next := int32(0)
	for i, used := range remap {
		if used != 0 {
			remap[i] = next
			out.Vertices[next] = src.Vertices[i]
			next++
		}
	}
	for n, fi := range faces {
		f := src.Faces[fi]
		out.Faces[n] = mesh.Face{A: int(remap[f.A]), B: int(remap[f.B]), C: int(remap[f.C])}
	}
	if patch != nil {
		out.Merge(patch) // fills the reserved capacity; out carries no normals/UVs
	}
	return out
}

// HybridDecoder poses the periphery from keypoints — a rest-pose surface
// extracted once at a reduced resolution, then skinned per frame, as in
// KeypointDecoder — and grafts the received foveal mesh over it:
// peripheral faces falling inside the foveal region are dropped, then the
// foveal patch is merged — into a fresh mesh, since the peripheral mesh
// shares its faces with the rest surface and, with a Cache, is shared
// with other streams. The seam between the two parts is the integration
// challenge §3.1 leaves open; the decoder makes it measurable rather
// than hiding it.
type HybridDecoder struct {
	Model *body.Model
	Codec compress.Codec
	// PeripheralResolution is the rest-surface resolution for the
	// periphery (deliberately low; that is the point of the hybrid).
	PeripheralResolution int
	Selector             gaze.FovealSelector
	// Workers bounds peripheral extraction and skinning parallelism (0 =
	// GOMAXPROCS, 1 = serial); output is identical at any setting.
	Workers int
	// WarmStart has no effect on decoded meshes; kept because bench/
	// sets it.
	WarmStart bool
	// Cache, when non-nil, serves repeated poses from a mesh LRU before
	// peripheral skinning runs.
	Cache *avatar.MeshCache
	// Counters, when non-nil, accumulates cache telemetry and counts each
	// skinned frame as a cold frame.
	Counters *metrics.ReconCounters
	// FieldStats has no effect; kept because bench/ sets it.
	FieldStats *metrics.FieldCounters

	// periphery runs the pose-and-skin step, rebound to this decoder's
	// settings each frame.
	periphery KeypointDecoder
	// anchor is written from the control/input plane while Decode reads
	// it from the pipeline goroutine; see HybridEncoder.anchor.
	anchor atomic.Pointer[geom.Vec3]
	cut    fovealCut
	// patch is the decoded foveal mesh, decoded anew each frame into the
	// same arrays: the graft only reads it (Merge copies it).
	patch mesh.Mesh
}

// SetGazeAnchor mirrors the encoder-side anchor (receivers know their
// own gaze). Safe to call concurrently with Decode.
func (d *HybridDecoder) SetGazeAnchor(p geom.Vec3) {
	d.anchor.Store(&p)
}

// SetWorkers rebinds the parallelism bound between frames — the decode
// service sets each frame's pool grant here before decoding. Not safe
// concurrently with Decode (callers serialize per stream).
func (d *HybridDecoder) SetWorkers(n int) { d.Workers = n }

// Mode implements Decoder.
func (d *HybridDecoder) Mode() Mode { return ModeHybrid }

// Decode implements Decoder.
func (d *HybridDecoder) Decode(channels []transport.Frame) (FrameData, error) {
	res := d.PeripheralResolution
	if res <= 0 {
		res = 48
	}
	p := &d.periphery
	p.Model, p.Codec, p.Resolution, p.Workers = d.Model, d.Codec, res, d.Workers
	p.Cache, p.Counters = d.Cache, d.Counters

	var pose *transport.Frame
	var foveal *mesh.Mesh
	for i, f := range channels {
		switch f.Channel {
		case ChanKeypointData:
			pose = &channels[i]
		case ChanFovealMesh:
			if len(f.Payload) == 0 {
				continue // no foveal region this frame
			}
			if err := dracogo.DecodeMeshInto(&d.patch, f.Payload); err != nil {
				return FrameData{}, fmt.Errorf("core: foveal mesh: %w", err)
			}
			foveal = &d.patch
		case ChanTextureData:
			// Rung 1's texture rides along in a rung-2 frame; shipped, not
			// drawn (see KeypointDecoder).
		default:
			return FrameData{}, errUnexpectedChannel(ModeHybrid, f.Channel)
		}
	}
	if pose == nil {
		return FrameData{}, fmt.Errorf("core: hybrid decoder got no pose payload")
	}
	// Skin only once every channel has decoded, so a frame that fails
	// costs no skinning and leaves the shared cache untouched.
	params, peripheral, err := p.poseAndSkin(*pose)
	if err != nil {
		return FrameData{}, err
	}
	if peripheral == nil {
		peripheral = &mesh.Mesh{} // no Model: nothing to skin, as Skin returns
	}

	// peripheral shares its faces with the rest surface and may be a
	// cached mesh other streams are reading: graft into a copy, never in
	// place.
	merged := peripheral
	anchor := d.anchor.Load()
	if foveal != nil && anchor != nil {
		// Drop peripheral faces inside the fovea, then graft the patch.
		merged = d.cut.apply(nil, peripheral, d.Selector, *anchor, false, foveal)
	} else if foveal != nil {
		merged = peripheral.Clone()
		merged.Merge(foveal)
	}
	return FrameData{Params: params, Mesh: merged}, nil
}
