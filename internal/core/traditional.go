package core

import (
	"fmt"

	"semholo/internal/capture"
	"semholo/internal/compress/dracogo"
	"semholo/internal/transport"
)

// TraditionalEncoder ships the full posed mesh every frame, compressed
// with the Draco-style codec — the baseline SemHolo is measured against
// (Table 2's right half).
type TraditionalEncoder struct {
	// Options tunes mesh quantization.
	Options dracogo.Options
	// Uncompressed disables the mesh codec and ships raw (the "w/o
	// compression" arm of Table 2); the raw encoding is the codec at
	// effectively lossless settings, measured before entropy coding.
	Uncompressed bool
}

// Mode implements Encoder.
func (e *TraditionalEncoder) Mode() Mode { return ModeTraditional }

// Encode implements Encoder.
func (e *TraditionalEncoder) Encode(c capture.Capture) (EncodedFrame, error) {
	if c.Mesh == nil {
		return EncodedFrame{}, fmt.Errorf("core: traditional encoder needs the captured mesh")
	}
	m := c.Mesh
	var payload []byte
	flags := transport.FlagKeyframe | transport.FlagEndOfFrame
	if e.Uncompressed {
		payload = rawMeshBytes(m)
	} else {
		payload = dracogo.EncodeMesh(m, e.Options)
		flags |= transport.FlagCompressed
	}
	return EncodedFrame{Channels: []ChannelPayload{{
		Channel: ChanMeshData,
		Flags:   flags,
		Payload: payload,
	}}}, nil
}

// TraditionalDecoder reverses TraditionalEncoder.
type TraditionalDecoder struct{}

// Mode implements Decoder.
func (d *TraditionalDecoder) Mode() Mode { return ModeTraditional }

// Decode implements Decoder.
func (d *TraditionalDecoder) Decode(channels []transport.Frame) (FrameData, error) {
	for _, f := range channels {
		if f.Channel != ChanMeshData {
			return FrameData{}, errUnexpectedChannel(ModeTraditional, f.Channel)
		}
		if f.Flags&transport.FlagCompressed == 0 {
			m, err := meshFromRaw(f.Payload)
			if err != nil {
				return FrameData{}, err
			}
			return FrameData{Mesh: m}, nil
		}
		m, err := dracogo.DecodeMesh(f.Payload)
		if err != nil {
			return FrameData{}, fmt.Errorf("core: traditional decode: %w", err)
		}
		return FrameData{Mesh: m}, nil
	}
	return FrameData{}, fmt.Errorf("core: traditional decoder got no payload")
}
