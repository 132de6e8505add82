package core

import (
	"fmt"
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
	// Strip EndOfFrame from the keypoint payloads; the foveal mesh
	// closes the frame.
	for i := range kp.Channels {
		kp.Channels[i].Flags &^= transport.FlagEndOfFrame
	}
	out := EncodedFrame{Channels: kp.Channels}

	foveal := e.fovealSubmesh(c.Mesh)
	var payload []byte
	if foveal != nil && len(foveal.Faces) > 0 {
		payload = dracogo.EncodeMesh(foveal, e.MeshOptions)
	}
	out.Channels = append(out.Channels, ChannelPayload{
		Channel: ChanFovealMesh,
		Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
		Payload: payload, // empty payload = no foveal region this frame
	})
	return out, nil
}

// fovealSubmesh extracts the faces of m inside the foveal region (nil
// when there are none). m is only read.
func (e *HybridEncoder) fovealSubmesh(m *mesh.Mesh) *mesh.Mesh {
	anchor := e.anchor.Load()
	if m == nil || anchor == nil {
		return nil
	}
	sub := e.cut.apply(m, e.Selector, *anchor, true, nil)
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

// apply returns a fresh exact-size mesh holding the faces of src whose
// centroid's InFovea equals inside, their vertices compacted in source
// order, followed by patch's geometry when patch is non-nil — the result
// of filtering src's faces, CompactVertices, then Merge(patch), in one
// pass and three allocations. Only positions and faces are carried over.
func (c *fovealCut) apply(src *mesh.Mesh, sel gaze.FovealSelector, anchor geom.Vec3, inside bool, patch *mesh.Mesh) *mesh.Mesh {
	if cap(c.remap) < len(src.Vertices) {
		c.remap = make([]int32, len(src.Vertices))
	}
	remap := c.remap[:len(src.Vertices)]
	clear(remap)
	faces := c.faces[:0]
	nv := 0
	for i, f := range src.Faces {
		if sel.InFovea(src.FaceCentroid(i), anchor) != inside {
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
	out := &mesh.Mesh{
		Vertices: make([]geom.Vec3, nv, nv+extraV),
		Faces:    make([]mesh.Face, len(faces), len(faces)+extraF),
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

// HybridDecoder reconstructs the periphery from keypoints at a reduced
// resolution and grafts the received foveal mesh over it: peripheral
// faces falling inside the foveal region are dropped, then the foveal
// patch is merged — into a fresh mesh, since with a Cache the peripheral
// reconstruction is shared with other streams. The seam between the two
// parts is the integration challenge §3.1 leaves open; the decoder makes
// it measurable rather than hiding it.
type HybridDecoder struct {
	Model *body.Model
	Codec compress.Codec
	// PeripheralResolution is the keypoint-reconstruction resolution for
	// the periphery (deliberately low; that is the point of the hybrid).
	PeripheralResolution int
	Selector             gaze.FovealSelector
	// Workers bounds peripheral-reconstruction parallelism (0 =
	// GOMAXPROCS, 1 = serial); output is identical at any setting.
	Workers int
	// WarmStart enables temporal-coherence peripheral reconstruction
	// (byte-identical output, see avatar.Reconstructor).
	WarmStart bool
	// Cache, when non-nil, serves repeated (quantized) poses from a mesh
	// LRU before peripheral reconstruction runs.
	Cache *avatar.MeshCache
	// Counters, when non-nil, accumulates cache and warm-start telemetry.
	Counters *metrics.ReconCounters
	// FieldStats, when non-nil, accumulates SDF field-evaluation telemetry.
	FieldStats *metrics.FieldCounters
	// Unpruned disables the capsule culling grid (ablation knob; output is
	// byte-identical either way).
	Unpruned bool

	rec *avatar.Reconstructor
	// anchor is written from the control/input plane while Decode reads
	// it from the pipeline goroutine; see HybridEncoder.anchor.
	anchor atomic.Pointer[geom.Vec3]
	cut    fovealCut
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

// ResetState implements StateResetter: drop warm-start peripheral
// reconstruction state so the next frame decodes as a cold start.
func (d *HybridDecoder) ResetState() {
	if d.rec != nil {
		d.rec.ResetWarmState()
	}
}

// Mode implements Decoder.
func (d *HybridDecoder) Mode() Mode { return ModeHybrid }

// Decode implements Decoder.
func (d *HybridDecoder) Decode(channels []transport.Frame) (FrameData, error) {
	var params *body.Params
	var foveal *mesh.Mesh
	for _, f := range channels {
		switch f.Channel {
		case ChanKeypointData:
			raw := f.Payload
			if f.Flags&transport.FlagCompressed != 0 {
				if d.Codec == nil {
					return FrameData{}, fmt.Errorf("core: compressed payload but no codec configured")
				}
				dec, err := d.Codec.Decode(f.Payload)
				if err != nil {
					return FrameData{}, fmt.Errorf("core: hybrid pose decompress: %w", err)
				}
				raw = dec
			}
			p, err := body.UnmarshalParams(raw)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: hybrid pose: %w", err)
			}
			params = p
		case ChanFovealMesh:
			if len(f.Payload) == 0 {
				continue // no foveal region this frame
			}
			m, err := dracogo.DecodeMesh(f.Payload)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: foveal mesh: %w", err)
			}
			foveal = m
		case ChanTextureData:
			// Texture riding along with the keypoint payloads; ignored
			// here (the session runtime exposes it via KeypointDecoder
			// when texturing is on).
		default:
			return FrameData{}, errUnexpectedChannel(ModeHybrid, f.Channel)
		}
	}
	if params == nil {
		return FrameData{}, fmt.Errorf("core: hybrid decoder got no pose payload")
	}
	res := d.PeripheralResolution
	if res <= 0 {
		res = 48
	}
	if d.rec == nil || d.rec.Model != d.Model {
		d.rec = &avatar.Reconstructor{Model: d.Model}
	}
	d.rec.Resolution = res
	d.rec.Workers = d.Workers
	d.rec.WarmStart = d.WarmStart
	d.rec.Cache = d.Cache
	d.rec.Counters = d.Counters
	d.rec.FieldStats = d.FieldStats
	d.rec.Unpruned = d.Unpruned
	peripheral := d.rec.Reconstruct(params)

	// peripheral may be a cached mesh other streams are reading: graft
	// into a copy, never in place.
	merged := peripheral
	anchor := d.anchor.Load()
	if foveal != nil && anchor != nil {
		// Drop peripheral faces inside the fovea, then graft the patch.
		merged = d.cut.apply(peripheral, d.Selector, *anchor, false, foveal)
	} else if foveal != nil {
		merged = peripheral.Clone()
		merged.Merge(foveal)
	}
	return FrameData{Params: params, Mesh: merged}, nil
}
