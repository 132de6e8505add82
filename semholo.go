// Package semholo is the public API of SemHolo, a semantic-driven
// holographic communication framework reproducing "Enriching Telepresence
// with Semantic-driven Holographic Communication" (HotNets '23).
//
// Instead of streaming volumetric content bit by bit, SemHolo extracts
// semantic information from telepresence participants — keypoints, 2D
// images, or text — transmits only that, and reconstructs the volumetric
// content at the receiver. The package re-exports the framework's core
// types and provides convenience constructors for the standard pipelines:
//
//	world := semholo.NewWorld(semholo.WorldOptions{})       // capture side
//	enc, dec := semholo.NewKeypointPipeline(world, semholo.KeypointOptions{})
//	sender := &semholo.Sender{Session: sess, Encoder: enc}
//	...
//
// The constructors cover four of the paper's pipelines (§2.3):
// traditional (compressed mesh baseline), keypoint (the §4
// proof-of-concept), text (captions + text-to-3D, §3.3), and hybrid
// (gaze-contingent foveal mesh + peripheral keypoints, §3.1). The image
// pipeline (receiver-side NeRF, §3.2) lives in internal/core, where the
// experiments build it.
package semholo

import (
	"math"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/core"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/pipeline"
	"semholo/internal/service"
	"semholo/internal/textsem"
	"semholo/internal/transport"
)

// Re-exported core types: the surface cmd/ and examples/ build on.
type (
	// Encoder turns captures into wire payloads.
	Encoder = core.Encoder
	// Decoder reconstructs frames from wire payloads.
	Decoder = core.Decoder
	// FrameData is a decoded media frame.
	FrameData = core.FrameData
	// Sender drives the sending side of a session.
	Sender = core.Sender
	// Receiver collects the receiving side's media frames off a session.
	Receiver = core.Receiver
	// Session is the underlying framed transport.
	Session = transport.Session
	// Hello is the session handshake payload.
	Hello = transport.Hello
	// Capture is one synchronized multi-view RGB-D sample.
	Capture = capture.Capture
	// WireFrame is one protocol data unit on the wire.
	WireFrame = transport.Frame
	// RelayOptions tunes relay queue depth and metrics.
	RelayOptions = core.RelayOptions
	// PipelineMetrics aggregates per-stage and end-to-end frame latency
	// against the 100 ms motion-to-photon budget.
	PipelineMetrics = obs.PipelineMetrics
)

var (
	// NewRegistry builds an empty observability metrics registry.
	NewRegistry = obs.NewRegistry
	// NewPipelineMetrics registers the frame-pipeline metric set.
	NewPipelineMetrics = obs.NewPipelineMetrics
)

// Staged pipeline runtime (internal/pipeline), re-exported: the
// concurrent execution model that overlaps capture ∥ encode ∥ send and
// recv ∥ decode ∥ render with bounded latest-frame-wins queues and
// context-driven lifecycle.
type (
	// PipelineSenderOptions configures RunSenderPipeline.
	PipelineSenderOptions = pipeline.SenderOptions
	// PipelineReceiverOptions configures RunReceiverPipeline.
	PipelineReceiverOptions = pipeline.ReceiverOptions
)

var (
	// RunSenderPipeline drives a sender as overlapped stages.
	RunSenderPipeline = pipeline.RunSender
	// RunReceiverPipeline drives a receiver as overlapped stages.
	RunReceiverPipeline = pipeline.RunReceiver
	// NewPipelineGroup builds an errgroup-style lifecycle group.
	NewPipelineGroup = pipeline.NewGroup
	// ConnectContext dials a session whose lifetime is bound to a
	// context: cancellation unblocks Recv and sends and tears the session down.
	ConnectContext = transport.DialContext
	// ServeContext accepts a session bound to a context.
	ServeContext = transport.AcceptContext
)

// ModeKeypoint names the keypoint pipeline in a session's Hello.
const ModeKeypoint = core.ModeKeypoint

// FrameTypeSemantic marks media payload frames on the wire.
const FrameTypeSemantic = transport.TypeSemantic

// WorldOptions configures the simulated capture world that stands in for
// a physical multi-camera telepresence site.
type WorldOptions struct {
	// Shape selects the participant's body shape coefficients.
	Shape []float64
	// Detail controls body template density (default 1; 2 ≈ SMPL-X scale).
	Detail int
	// Cameras is the rig size (default 4).
	Cameras int
	// Resolution is the per-camera sensor resolution (default 96).
	Resolution int
	// FPS is the capture rate (default 30).
	FPS float64
	// Motion selects the workload; default Talking.
	Motion body.Motion
	// Noise selects the sensor noise model; default KinectLike.
	Noise *capture.NoiseModel
	// Seed makes the world reproducible.
	Seed int64
	// Parallelism bounds capture/render worker goroutines (0 =
	// GOMAXPROCS, 1 = serial). Captured frames are byte-identical for
	// any setting.
	Parallelism int
}

// World is a simulated telepresence site: a participant (parametric
// human driven by a motion generator) observed by a calibrated RGB-D
// rig.
type World struct {
	Model    *body.Model
	Sequence *capture.Sequence
}

// NewWorld builds a capture world.
func NewWorld(opt WorldOptions) *World {
	if opt.Detail <= 0 {
		opt.Detail = 1
	}
	if opt.Cameras <= 0 {
		opt.Cameras = 4
	}
	if opt.Resolution <= 0 {
		opt.Resolution = 96
	}
	if opt.FPS <= 0 {
		opt.FPS = 30
	}
	if opt.Motion == nil {
		opt.Motion = body.Talking(opt.Shape)
	}
	noise := capture.KinectLike()
	if opt.Noise != nil {
		noise = *opt.Noise
	}
	model := body.NewModel(opt.Shape, body.ModelOptions{Detail: opt.Detail})
	rig := capture.NewRing(opt.Cameras, 2.5, 1.0, geom.V3(0, 1.0, 0), opt.Resolution, math.Pi/3, opt.Seed)
	rig.Noise = noise
	rig.Workers = opt.Parallelism
	return &World{
		Model: model,
		Sequence: &capture.Sequence{
			Model:  model,
			Motion: opt.Motion,
			Rig:    rig,
			FPS:    opt.FPS,
			Render: capture.SkinShader(),
		},
	}
}

// FrameAt captures frame i of the world's motion.
func (w *World) FrameAt(i int) Capture { return w.Sequence.FrameAt(i) }

// KeypointOptions tunes the keypoint pipeline.
type KeypointOptions struct {
	// Resolution is the receiver's rest-surface resolution (default 64;
	// negative disables geometry reconstruction).
	Resolution int
	// Detector overrides the simulated detector characteristics.
	Detector *keypoint.DetectorOptions
}

// NewKeypointPipeline builds the paper's proof-of-concept pipeline (§4):
// 3D keypoints → SMPL-X-style parameters → LZMA-family compression on
// the wire; at the receiver, an implicit-surface rest pose extracted once
// and posed per frame by linear blend skinning.
func NewKeypointPipeline(w *World, opt KeypointOptions) (Encoder, *core.KeypointDecoder) {
	det := keypoint.DefaultDetector()
	if opt.Detector != nil {
		det = *opt.Detector
	}
	res := opt.Resolution
	if res == 0 {
		res = 64
	}
	if res < 0 {
		res = 0
	}
	enc := &core.KeypointEncoder{
		Model:    w.Model,
		Detector: keypoint.NewDetector(det),
		Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
		Codec:    compress.LZR(),
	}
	dec := &core.KeypointDecoder{Model: w.Model, Codec: compress.LZR(), Resolution: res}
	return enc, dec
}

// NewTraditionalPipeline builds the bit-by-bit baseline: Draco-style
// compressed meshes every frame.
func NewTraditionalPipeline() (Encoder, Decoder) {
	return &core.TraditionalEncoder{Options: dracogo.Options{}}, &core.TraditionalDecoder{}
}

// TextOptions tunes the text pipeline.
type TextOptions struct {
	// CellSize is the absolute caption grid pitch (default 0.25 m).
	CellSize float64
	// KeyframeInterval forces a full document every n frames (default 30).
	KeyframeInterval int
}

// NewTextPipeline builds the text-semantics pipeline (§3.3): per-cell
// captions with inter-frame deltas, text-to-3D point cloud regeneration.
func NewTextPipeline(opt TextOptions) (Encoder, Decoder) {
	if opt.CellSize == 0 {
		opt.CellSize = 0.25
	}
	enc := &core.TextEncoder{
		Captioner:        textsem.Captioner{CellSize: opt.CellSize, Precision: 2},
		Codec:            compress.LZR(),
		KeyframeInterval: opt.KeyframeInterval,
	}
	dec := &core.TextDecoder{Codec: compress.LZR()}
	return enc, dec
}

// HybridOptions tunes the foveated hybrid pipeline.
type HybridOptions struct {
	// FovealRadius is the full-quality angular radius in degrees
	// (default 5°, the parafovea).
	FovealRadius float64
	// ViewDistance converts world offsets to visual angle (default 2 m).
	ViewDistance float64
	// PeripheralResolution is the keypoint-reconstruction resolution
	// outside the fovea (default 48).
	PeripheralResolution int
}

// NewHybridPipeline builds the §3.1 foveated scheme: compressed mesh for
// the foveal region, keypoints for the periphery. Wire the receiver's
// gaze anchor to both ends (Receiver.ReportGaze → Sender.OnGaze →
// encoder.SetGazeAnchor, and decoder.SetGazeAnchor locally).
func NewHybridPipeline(w *World, opt HybridOptions) (*core.HybridEncoder, *core.HybridDecoder) {
	if opt.FovealRadius == 0 {
		opt.FovealRadius = 5
	}
	if opt.ViewDistance == 0 {
		opt.ViewDistance = 2
	}
	if opt.PeripheralResolution == 0 {
		opt.PeripheralResolution = 48
	}
	sel := gaze.FovealSelector{Radius: opt.FovealRadius, ViewDistance: opt.ViewDistance}
	kpEnc := &core.KeypointEncoder{
		Model:    w.Model,
		Detector: keypoint.NewDetector(keypoint.DefaultDetector()),
		Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
		Codec:    compress.LZR(),
	}
	enc := &core.HybridEncoder{Keypoint: kpEnc, Selector: sel}
	dec := &core.HybridDecoder{
		Model:                w.Model,
		Codec:                compress.LZR(),
		PeripheralResolution: opt.PeripheralResolution,
		Selector:             sel,
	}
	return enc, dec
}

// Connect dials a SemHolo session over an established connection.
var Connect = transport.Dial

// Serve accepts a SemHolo session over an established connection.
var Serve = transport.Accept

// NewRelayOpts builds a multi-party relay (serialize-once fan-out with
// per-subscriber egress queues) with explicit queue depth and metrics
// options.
var NewRelayOpts = core.NewRelayOpts

// NowMicros returns the current wall clock in unix microseconds — the
// capture timestamp format traced frames carry.
var NowMicros = obs.NowMicros

// EmulatedLink builds an in-memory link with the given one-way
// characteristics — handy for examples and tests.
var EmulatedLink = netsim.Pipe

// LinkConfig re-exports the link emulation configuration.
type LinkConfig = netsim.LinkConfig

// Link re-exports the emulated link handle returned by EmulatedLink.
type Link = netsim.Link

// BroadbandUS returns the paper's 25 Mbps deployment-constraint link.
var BroadbandUS = netsim.BroadbandUS

// ServiceOptions configures NewDecodeService.
type ServiceOptions = service.Options

// NewDecodeService builds a multi-tenant decode service: many concurrent
// avatar streams reconstructed in one process over shared immutable
// kernels, one worker pool, and one pose-keyed mesh cache.
var NewDecodeService = service.New
