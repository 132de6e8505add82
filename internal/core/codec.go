// Package core implements SemHolo itself: the semantic-driven holographic
// communication framework of the paper. It composes the substrate
// packages into the end-to-end pipeline of Figure 1 — capture → semantic
// extraction → compression → wire → reconstruction — with one
// Encoder/Decoder pair per taxonomy row (§2.3):
//
//	traditional  compressed mesh            (the baseline)
//	keypoint     body params from keypoints (the §4 proof-of-concept)
//	image        2D views + receiver NeRF   (§3.2)
//	text         captions + text-to-3D      (§3.3)
//	hybrid       foveal mesh + peripheral keypoints (§3.1)
//
// plus the session runtime (Sender/Receiver over the transport protocol)
// and the adaptive controller that switches semantics with available
// bandwidth.
package core

import (
	"fmt"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/mesh"
	"semholo/internal/obs"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
	"semholo/internal/transport"
)

// Mode names a semantics pipeline.
type Mode string

// The taxonomy modes.
const (
	ModeTraditional Mode = "traditional"
	ModeKeypoint    Mode = "keypoint"
	ModeImage       Mode = "image"
	ModeText        Mode = "text"
	ModeHybrid      Mode = "hybrid"
)

// Channel assignments. Every mode's payloads travel on dedicated
// channels so a receiver can demultiplex without inspecting payloads.
const (
	ChanMeshData     uint16 = 10 // traditional: dracogo mesh
	ChanKeypointData uint16 = 20 // keypoint: compressed body params
	ChanTextureData  uint16 = 21 // keypoint/hybrid: BTC texture views
	ChanTextGlobal   uint16 = 30 // text: document/update payloads
	ChanImageHeader  uint16 = 40 // image: camera/scene setup
	ChanImageView    uint16 = 41 // image: per-view BTC frames (41+i)
	ChanFovealMesh   uint16 = 50 // hybrid: foveal submesh
)

// ChannelPayload is one wire payload of an encoded media frame.
type ChannelPayload struct {
	Channel uint16
	Flags   uint16
	Payload []byte
}

// EncodedFrame is the full wire representation of one media frame: one
// or more channel payloads. TotalBytes is the sum of payload sizes.
type EncodedFrame struct {
	Channels []ChannelPayload
}

// TotalBytes returns the payload bytes of the frame (excluding framing
// overhead, which transport adds per channel payload).
func (e EncodedFrame) TotalBytes() int {
	n := 0
	for _, c := range e.Channels {
		n += len(c.Payload)
	}
	return n
}

// FrameData is the receiver-side result of decoding one media frame.
// Which fields are set depends on the mode's output format (Table 1):
// meshes for keypoint/traditional/hybrid, point clouds for text, images
// for the NeRF pipeline.
type FrameData struct {
	// Params carries decoded body parameters (keypoint/hybrid modes).
	Params *body.Params
	// Mesh carries reconstructed geometry. When the decoder has a mesh
	// cache it may be the cached mesh itself, shared with other streams
	// and read-only: Clone() before mutating.
	Mesh *mesh.Mesh
	// Cloud carries reconstructed point clouds (text mode).
	Cloud *pointcloud.Cloud
	// NovelView carries a rendered receiver-side view (image mode).
	NovelView *render.Frame
	// Trace carries the frame's end-to-end timing record when the sender
	// put the trace extension on the wire (nil otherwise).
	Trace *obs.FrameTrace
}

// Encoder turns a capture into wire payloads. Implementations are
// stateful (delta encoding, temporal filters) and not safe for
// concurrent use.
type Encoder interface {
	// Mode identifies the pipeline.
	Mode() Mode
	// Encode converts one capture into channel payloads.
	Encode(c capture.Capture) (EncodedFrame, error)
}

// Decoder reconstructs frames from wire payloads. Implementations are
// stateful and not safe for concurrent use.
type Decoder interface {
	// Mode identifies the pipeline.
	Mode() Mode
	// Decode consumes the channel payloads of one media frame.
	Decode(channels []transport.Frame) (FrameData, error)
}

// errUnexpectedChannel builds the standard demux error.
func errUnexpectedChannel(mode Mode, ch uint16) error {
	return fmt.Errorf("core: %s decoder received unexpected channel %d", mode, ch)
}
