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
	Text        *TextDecoder
	Hybrid      *HybridDecoder
}

// Mode implements Decoder (reports "adaptive").
func (a *AdaptiveDecoder) Mode() Mode { return "adaptive" }

// ResetState implements StateResetter by resetting the one sub-decoder
// that carries cross-frame state, Text's delta reference — a tier switch
// may land on any pipeline. Keypoint, Hybrid and Traditional carry
// none: rung 1's texture is shipped but not drawn, so no decoder keeps
// it.
func (a *AdaptiveDecoder) ResetState() {
	if a.Text != nil {
		a.Text.ResetState()
	}
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
	case closing == ChanTextGlobal && a.Text != nil:
		return a.Text.Decode(channels)
	default:
		return FrameData{}, fmt.Errorf("core: no decoder for closing channel %d", closing)
	}
}
