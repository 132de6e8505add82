package core

import (
	"fmt"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// KeypointEncoder implements the paper's proof-of-concept pipeline (§4):
// detect 3D keypoints from the RGB-D views, temporally filter them,
// encode them into body-model parameters (the SMPL-X alignment step),
// and ship the ~1.6 KB float64 parameter frame (body.Params.Marshal)
// LZMA-compressed — Table 2's left half; with Codec nil it ships the
// frame raw (Table 2's "w/o compression" arm).
//
// The pose encoder of NewSemanticLadder ships the 408-byte quantised
// frame (body.Params.MarshalCompact) instead, falling back to the
// float64 frame for any frame with a value out of its integer range; a
// standalone encoder always ships the float64 frame. KeypointDecoder and
// HybridDecoder read either, by magic.
type KeypointEncoder struct {
	Model    *body.Model
	Detector *keypoint.Detector
	Filter   keypoint.Filter
	Codec    compress.Codec
	// Shape carries the session's fitted shape coefficients.
	Shape []float64
	// UseLifting switches detection to the RGB-only 2D→3D lifting path
	// (§2.3): noisier and more compute than direct RGB-D detection, for
	// deployments without depth sensors.
	UseLifting bool

	// compactPose selects body.Params.MarshalCompact for the pose frame;
	// set only by NewSemanticLadder.
	compactPose bool
	lastFit     *body.Params
	// chanScratch is the EncodedFrame.Channels backing array, reused
	// across frames — senders consume the slice before the next Encode,
	// so steady-state encoding allocates no per-frame channel slice.
	chanScratch []ChannelPayload
}

// Mode implements Encoder.
func (e *KeypointEncoder) Mode() Mode { return ModeKeypoint }

// Encode implements Encoder.
func (e *KeypointEncoder) Encode(c capture.Capture) (EncodedFrame, error) {
	if e.Model == nil || e.Detector == nil {
		return EncodedFrame{}, fmt.Errorf("core: keypoint encoder missing model or detector")
	}
	truth := e.Model.Keypoints(c.Truth)
	var obs []keypoint.Observation
	if e.UseLifting {
		obs = e.Detector.DetectLifted(c.Views, truth)
	} else {
		obs = e.Detector.DetectRGBD(c.Views, truth)
	}
	// Missed detections would otherwise enter the fit as points at the
	// origin and wreck the hierarchy; substitute the prediction from the
	// previous fit (rest pose on the first frame).
	prior := e.lastFit
	if prior == nil {
		prior = &body.Params{}
		for i := 0; i < body.NumShape && i < len(e.Shape); i++ {
			prior.Shape[i] = e.Shape[i]
		}
	}
	predicted := e.Model.Keypoints(prior)
	for i := range obs {
		if !obs[i].Valid && i < len(predicted) {
			obs[i] = keypoint.Observation{Pos: predicted[i], Confidence: 0, Valid: true}
		}
	}
	estimated := observationsToPositions(obs)
	if e.Filter != nil {
		estimated = e.Filter.Step(c.Time, obs)
	}
	params := avatar.Fit(e.Model, estimated, e.Shape)
	e.lastFit = params
	// Expression is not observable from keypoints alone; carry the
	// ground-truth expression channel (in a real deployment this comes
	// from the face tracker, a keypoint source in its own right).
	params.Expression = c.Truth.Expression

	var raw []byte
	if e.compactPose {
		raw = params.MarshalCompact()
	} else {
		raw = params.Marshal()
	}
	flags := transport.FlagKeyframe | transport.FlagEndOfFrame
	payload := raw
	if e.Codec != nil {
		payload = e.Codec.Encode(raw)
		flags |= transport.FlagCompressed
	}
	e.chanScratch = append(e.chanScratch[:0], ChannelPayload{
		Channel: ChanKeypointData,
		Flags:   flags,
		Payload: payload,
	})
	return EncodedFrame{Channels: e.chanScratch}, nil
}

// observationsToPositions extracts raw positions when no temporal filter
// is configured; missed keypoints stay at the zero position and the
// hierarchical fit degrades gracefully around them.
func observationsToPositions(obs []keypoint.Observation) []geom.Vec3 {
	out := make([]geom.Vec3, len(obs))
	for i, o := range obs {
		out[i] = o.Pos
	}
	return out
}

// KeypointDecoder reverses KeypointEncoder: decompress → parameters
// (float64 or quantised frame, told apart by magic) → a posed surface.
// The first frame extracts the avatar's rest-pose surface from the
// implicit SDF at the configured output resolution (the Figure 2/4 knob)
// and binds it to the skeleton; every frame then poses that surface by
// linear blend skinning (avatar.Reconstructor.Skin), so per-frame cost is
// O(vertices), not a lattice extraction. Decoded meshes share their
// faces with that rest surface: read-only, Clone to mutate. A texture
// channel (semantic-ladder rung 1) is skipped: no decoder draws it.
type KeypointDecoder struct {
	Model *body.Model
	Codec compress.Codec
	// Resolution is the rest-surface voxel resolution; 0 skips geometry
	// entirely (parameters only), which is how bandwidth-only
	// experiments avoid paying reconstruction cost. Changing it re-runs
	// the rest-surface extraction on the next frame.
	Resolution int
	// Workers bounds extraction and skinning parallelism (0 =
	// GOMAXPROCS, 1 = serial); the mesh is identical at any setting.
	Workers int
	// WarmStart has no effect on decoded meshes; kept because bench/
	// sets it.
	WarmStart bool
	// Cache, when non-nil, serves repeated poses from a mesh LRU before
	// any skinning runs.
	Cache *avatar.MeshCache
	// Counters, when non-nil, accumulates cache telemetry and counts each
	// skinned frame as a cold frame.
	Counters *metrics.ReconCounters
	// FieldStats has no effect; kept because bench/ sets it.
	FieldStats *metrics.FieldCounters
	// Obs, when non-nil, records the reconstruct stage span separately
	// from the enclosing decode span.
	Obs *obs.PipelineMetrics

	// rec is the persistent reconstructor, rebuilt only when the model
	// changes (it re-runs its rest-surface pass itself on a resolution
	// change).
	rec *avatar.Reconstructor
}

// Mode implements Decoder.
func (d *KeypointDecoder) Mode() Mode { return ModeKeypoint }

// SetWorkers rebinds the parallelism bound between frames — the decode
// service sets each frame's pool grant here before decoding. Not safe
// concurrently with Decode (callers serialize per stream).
func (d *KeypointDecoder) SetWorkers(n int) { d.Workers = n }

// Decode implements Decoder.
func (d *KeypointDecoder) Decode(channels []transport.Frame) (FrameData, error) {
	var out FrameData
	for _, f := range channels {
		switch f.Channel {
		case ChanTextureData:
			// Shipped by rung 1, not drawn; see the type comment.
		case ChanKeypointData:
			params, m, err := d.poseAndSkin(f)
			if err != nil {
				return FrameData{}, err
			}
			out.Params, out.Mesh = params, m
		default:
			return FrameData{}, errUnexpectedChannel(ModeKeypoint, f.Channel)
		}
	}
	if out.Params == nil {
		return FrameData{}, fmt.Errorf("core: keypoint decoder got no pose payload")
	}
	return out, nil
}

// poseAndSkin is the pose step both skinned decoders run (HybridDecoder
// through its periphery decoder): decompress the pose channel when it is
// flagged compressed, read the parameters, and — with a Model and a
// positive Resolution — skin the rest surface into that pose.
func (d *KeypointDecoder) poseAndSkin(f transport.Frame) (*body.Params, *mesh.Mesh, error) {
	raw := f.Payload
	if f.Flags&transport.FlagCompressed != 0 {
		if d.Codec == nil {
			return nil, nil, fmt.Errorf("core: compressed payload but no codec configured")
		}
		dec, err := d.Codec.Decode(f.Payload)
		if err != nil {
			return nil, nil, fmt.Errorf("core: pose decompress: %w", err)
		}
		raw = dec
	}
	params, err := body.UnmarshalParams(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("core: pose decode: %w", err)
	}
	if d.Resolution <= 0 || d.Model == nil {
		return params, nil, nil
	}
	if d.rec == nil || d.rec.Model != d.Model {
		d.rec = &avatar.Reconstructor{Model: d.Model}
	}
	d.rec.Resolution = d.Resolution
	d.rec.Workers = d.Workers
	d.rec.Cache = d.Cache
	d.rec.Counters = d.Counters
	stop := d.Obs.StartStage(obs.StageReconstruct)
	m := d.rec.Skin(params)
	stop()
	return params, m, nil
}
