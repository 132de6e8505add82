package core

import (
	"fmt"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/metrics"
	"semholo/internal/obs"
	"semholo/internal/pointcloud"
	"semholo/internal/texture"
	"semholo/internal/transport"
)

// KeypointEncoder implements the paper's proof-of-concept pipeline (§4):
// detect 3D keypoints from the RGB-D views, temporally filter them,
// encode them into body-model parameters (the SMPL-X alignment step),
// and ship the ~1.6 KB float64 parameter frame (body.Params.Marshal)
// LZMA-compressed — Table 2's left half. Optionally one compressed 2D
// texture view rides along for receiver-side projection mapping (§3.1's
// texture-alignment agenda).
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
	// SendTexture additionally ships view 0's color image BTC-compressed
	// on ChanTextureData.
	SendTexture bool
	// Uncompressed skips the general-purpose codec (Table 2's "w/o
	// compression" arm).
	Uncompressed bool
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
	if !e.Uncompressed && e.Codec != nil {
		payload = e.Codec.Encode(raw)
		flags |= transport.FlagCompressed
	}
	out := EncodedFrame{Channels: e.chanScratch[:0]}
	if e.SendTexture && len(c.Views) > 0 && c.Views[0].Colors != nil {
		intr := c.Views[0].Camera.Intr
		tex, err := texture.CompressBTC(c.Views[0].Colors, intr.Width, intr.Height)
		if err != nil {
			return EncodedFrame{}, fmt.Errorf("core: texture compress: %w", err)
		}
		// The texture channel precedes the pose channel; EndOfFrame
		// stays on the pose payload.
		out.Channels = append(out.Channels, ChannelPayload{
			Channel: ChanTextureData,
			Flags:   transport.FlagKeyframe | transport.FlagCompressed,
			Payload: tex,
		})
	}
	out.Channels = append(out.Channels, ChannelPayload{
		Channel: ChanKeypointData,
		Flags:   flags,
		Payload: payload,
	})
	e.chanScratch = out.Channels
	return out, nil
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
// faces with that rest surface: read-only, Clone to mutate.
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
	// Cache, when non-nil, serves repeated (quantized) poses from a mesh
	// LRU before any skinning runs.
	Cache *avatar.MeshCache
	// Counters, when non-nil, accumulates cache telemetry and counts each
	// skinned frame as a cold frame.
	Counters *metrics.ReconCounters
	// FieldStats has no effect; kept because bench/ sets it.
	FieldStats *metrics.FieldCounters
	// Obs, when non-nil, records the reconstruct stage span separately
	// from the enclosing decode span.
	Obs *obs.PipelineMetrics

	rec *avatar.Reconstructor
	// Views enables texture decoding when the sender ships it.
	lastTexture []pointcloud.Color
	texW, texH  int
}

// reconstructor returns the decoder's persistent reconstructor, rebuilt
// only when the model changes (the reconstructor itself re-runs its
// rest-surface pass on resolution changes).
func (d *KeypointDecoder) reconstructor() *avatar.Reconstructor {
	if d.rec == nil || d.rec.Model != d.Model {
		d.rec = &avatar.Reconstructor{Model: d.Model}
	}
	d.rec.Resolution = d.Resolution
	d.rec.Workers = d.Workers
	d.rec.Cache = d.Cache
	d.rec.Counters = d.Counters
	return d.rec
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
			colors, w, h, err := texture.DecompressBTCInto(d.lastTexture, f.Payload)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: texture decode: %w", err)
			}
			d.lastTexture, d.texW, d.texH = colors, w, h
		case ChanKeypointData:
			raw := f.Payload
			if f.Flags&transport.FlagCompressed != 0 {
				if d.Codec == nil {
					return FrameData{}, fmt.Errorf("core: compressed payload but no codec configured")
				}
				dec, err := d.Codec.Decode(f.Payload)
				if err != nil {
					return FrameData{}, fmt.Errorf("core: keypoint decompress: %w", err)
				}
				raw = dec
			}
			params, err := body.UnmarshalParams(raw)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: keypoint decode: %w", err)
			}
			out.Params = params
			if d.Resolution > 0 && d.Model != nil {
				stop := d.Obs.StartStage(obs.StageReconstruct)
				out.Mesh = d.reconstructor().Skin(params)
				stop()
			}
		default:
			return FrameData{}, errUnexpectedChannel(ModeKeypoint, f.Channel)
		}
	}
	if out.Params == nil {
		return FrameData{}, fmt.Errorf("core: keypoint decoder got no pose payload")
	}
	return out, nil
}

// LastTexture exposes the most recent decoded texture view, if any.
func (d *KeypointDecoder) LastTexture() ([]pointcloud.Color, int, int) {
	return d.lastTexture, d.texW, d.texH
}

// ResetState implements StateResetter: drop texture history so the next
// frame decodes exactly as a cold start — the receiver-side half of a
// mid-stream tier switch. The rest surface is per identity, not per
// frame, and survives.
func (d *KeypointDecoder) ResetState() {
	d.lastTexture = nil
	d.texW, d.texH = 0, 0
}
