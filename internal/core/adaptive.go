package core

import (
	"fmt"

	"semholo/internal/transport"
)

// AdaptiveDecoder demultiplexes by channel: because every pipeline owns
// distinct channels, the receiver can decode whichever ladder rung its
// relay leg serves without out-of-band signaling.
type AdaptiveDecoder struct {
	Keypoint    *KeypointDecoder
	Traditional *TraditionalDecoder
	Cloud       *CloudDecoder
	Text        *TextDecoder
	Image       *ImageDecoder
	Hybrid      *HybridDecoder
}

// Mode implements Decoder (reports "adaptive").
func (a *AdaptiveDecoder) Mode() Mode { return "adaptive" }

// ResetState implements StateResetter by resetting every configured
// sub-decoder that carries cross-frame state — a tier switch may land
// on any pipeline, so all delta references must go.
func (a *AdaptiveDecoder) ResetState() {
	if a.Keypoint != nil {
		a.Keypoint.ResetState()
	}
	if a.Text != nil {
		a.Text.ResetState()
	}
	if a.Image != nil {
		a.Image.ResetState()
	}
	if a.Hybrid != nil {
		a.Hybrid.ResetState()
	}
	// Traditional and Cloud decoders are stateless.
}

// Decode implements Decoder.
func (a *AdaptiveDecoder) Decode(channels []transport.Frame) (FrameData, error) {
	if len(channels) == 0 {
		return FrameData{}, fmt.Errorf("core: adaptive decoder got no payload")
	}
	// Dispatch on the closing channel (EndOfFrame determines the mode).
	closing := channels[len(channels)-1].Channel
	switch {
	case closing == ChanFovealMesh && a.Hybrid != nil:
		return a.Hybrid.Decode(channels)
	case closing == ChanKeypointData && a.Keypoint != nil:
		return a.Keypoint.Decode(channels)
	case closing == ChanMeshData && a.Traditional != nil:
		return a.Traditional.Decode(channels)
	case closing == ChanCloudData && a.Cloud != nil:
		return a.Cloud.Decode(channels)
	case closing == ChanTextGlobal && a.Text != nil:
		return a.Text.Decode(channels)
	case closing >= ChanImageView && a.Image != nil:
		return a.Image.Decode(channels)
	default:
		return FrameData{}, fmt.Errorf("core: no decoder for closing channel %d", closing)
	}
}
