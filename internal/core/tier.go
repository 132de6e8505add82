package core

import (
	"fmt"
	"sync"

	"semholo/internal/capture"
	"semholo/internal/texture"
	"semholo/internal/transport"

	"semholo/internal/compress/dracogo"
)

// KeyframeForcer is implemented by encoders whose output is
// delta-coded: ForceKeyframe makes the next Encode emit a
// self-contained frame a receiver can cold-start from. Encoders whose
// every frame is already self-contained (keypoint, hybrid) don't need
// it.
type KeyframeForcer interface {
	ForceKeyframe()
}

// StateResetter is implemented by decoders that carry cross-frame
// state (delta references, warm-start bands, texture history).
// ResetState drops that state so the next decoded frame is treated as
// a cold start — the receiver-side half of a mid-stream tier switch:
// resetting exactly on the tier-switch keyframe boundary makes the
// switched stream byte-identical to a cold decode of the new tier.
type StateResetter interface {
	ResetState()
}

// Tier is one rung of a TierLadder. Either Encoder runs the full
// pipeline for this rung, or Derive builds the rung's wire channels
// from the rung below — sharing the expensive per-frame work (keypoint
// detection, body fit, compression) instead of repeating it per tier.
type Tier struct {
	// Name labels the rung ("keypoint", "keypoint+texture", "hybrid").
	Name string
	// Bitrate is the rung's expected demand in bits/s; rungs must ascend.
	Bitrate float64
	// Encoder, when set, encodes this rung independently. Required on
	// tier 0 (there is nothing below to derive from).
	Encoder Encoder
	// Derive, when set (and Encoder is nil), builds this rung's frame
	// from the rung below. It must not mutate lower — lower tiers ship
	// their own frames from the same EncodeAll call.
	Derive func(c capture.Capture, lower EncodedFrame) (EncodedFrame, error)
}

// LadderFrame is one media frame encoded at every rung of the ladder,
// cheapest first. Tiers[i] corresponds to wire tier i.
type LadderFrame struct {
	Tiers []EncodedFrame
}

// TierLadder encodes each captured frame into an ordered set of tiers
// — the sender half of per-subscriber semantic tiering. Unlike running
// N independent encoders, rungs that Derive from the rung below reuse
// its already-encoded channels, so a keypoint→keypoint+texture→hybrid
// ladder pays for keypoint detection and the body fit exactly once per
// capture. A ladder of one tier is the plain encoder: EncodeAll
// delegates straight to tier 0's Encode and the wire bytes are
// byte-identical to the untiered path.
//
// Not safe for concurrent use beyond its own locking: one ladder per
// sending pipeline, like any Encoder.
type TierLadder struct {
	tiers []Tier

	mu      sync.Mutex
	forceKF []bool
	// frameScratch is the LadderFrame.Tiers backing array, reused across
	// frames (senders consume the slice before the next EncodeAll).
	frameScratch []EncodedFrame
}

// NewTierLadder validates and builds a ladder: 1..transport.MaxTiers
// rungs, strictly ascending bitrates, tier 0 with an Encoder, every
// higher rung with an Encoder or a Derive.
func NewTierLadder(tiers []Tier) (*TierLadder, error) {
	if len(tiers) < 1 || len(tiers) > transport.MaxTiers {
		return nil, fmt.Errorf("core: ladder needs 1..%d tiers, got %d", transport.MaxTiers, len(tiers))
	}
	if tiers[0].Encoder == nil {
		return nil, fmt.Errorf("core: tier 0 (%s) needs an encoder", tiers[0].Name)
	}
	for i, t := range tiers {
		if i > 0 && tiers[i-1].Bitrate >= t.Bitrate {
			return nil, fmt.Errorf("core: ladder bitrates must ascend (tier %d)", i)
		}
		if t.Encoder == nil && t.Derive == nil {
			return nil, fmt.Errorf("core: tier %d (%s) needs an encoder or a derivation", i, t.Name)
		}
	}
	return &TierLadder{
		tiers:   append([]Tier(nil), tiers...),
		forceKF: make([]bool, len(tiers)),
	}, nil
}

// TierCount returns the number of rungs.
func (l *TierLadder) TierCount() int { return len(l.tiers) }

// Levels returns the ladder as rate levels (for TierSelector
// construction), cheapest first.
func (l *TierLadder) Levels() []transport.RateLevel {
	out := make([]transport.RateLevel, len(l.tiers))
	for i, t := range l.tiers {
		out[i] = transport.RateLevel{Name: t.Name, Bitrate: t.Bitrate}
	}
	return out
}

// RequestKeyframe asks the given rung to emit a self-contained frame at
// the next EncodeAll — how a relay prepares a subscriber's tier switch
// so the receiver never warm-starts from another tier's state. Safe to
// call concurrently with EncodeAll (requests apply to the next frame).
func (l *TierLadder) RequestKeyframe(tier int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tier >= 0 && tier < len(l.forceKF) {
		l.forceKF[tier] = true
	}
}

// forceKeyframeLocked applies a pending keyframe request for rung i to
// the encoder that actually produces its base frame: the rung's own
// encoder, or the nearest encoder below it in the derivation chain.
func (l *TierLadder) forceKeyframeLocked(i int) {
	for j := i; j >= 0; j-- {
		if l.tiers[j].Encoder == nil {
			continue
		}
		if kf, ok := l.tiers[j].Encoder.(KeyframeForcer); ok {
			kf.ForceKeyframe()
		}
		return
	}
}

// EncodeAll encodes one capture at every rung, cheapest first. A
// one-rung ladder delegates straight to the encoder (byte-identical to
// the untiered path).
func (l *TierLadder) EncodeAll(c capture.Capture) (LadderFrame, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.forceKF {
		if l.forceKF[i] {
			l.forceKeyframeLocked(i)
			l.forceKF[i] = false
		}
	}
	frames := l.frameScratch[:0]
	for i, t := range l.tiers {
		var enc EncodedFrame
		var err error
		if t.Encoder != nil {
			enc, err = t.Encoder.Encode(c)
		} else {
			enc, err = t.Derive(c, frames[i-1])
		}
		if err != nil {
			return LadderFrame{}, fmt.Errorf("core: tier %d (%s): %w", i, t.Name, err)
		}
		frames = append(frames, enc)
	}
	l.frameScratch = frames
	return LadderFrame{Tiers: frames}, nil
}

// NewSemanticLadder builds the paper's three-rung semantic ladder:
//
//	tier 0  keypoint          body params only            (~0.3 Mbps)
//	tier 1  keypoint+texture  params + one BTC view       (~2 Mbps)
//	tier 2  hybrid            params + texture + foveal mesh
//
// Tiers 1 and 2 derive from tier 0's frame — keypoint detection, the
// body fit, and pose compression run once per capture; each rung adds
// only its own increment (texture compression, foveal mesh encode).
// The derived channels are byte-identical to what
// KeypointEncoder{SendTexture: true} and HybridEncoder would emit for
// the same capture, so a subscriber pinned to one tier sees exactly
// the single-encoder stream.
//
// pose must have SendTexture false (tier 1 adds the texture channel);
// hybrid supplies the gaze anchor and mesh options for tier 2 (its own
// Keypoint encoder is not used).
func NewSemanticLadder(pose *KeypointEncoder, hybrid *HybridEncoder, bitrates [3]float64) (*TierLadder, error) {
	if pose == nil || hybrid == nil {
		return nil, fmt.Errorf("core: semantic ladder needs pose and hybrid encoders")
	}
	if pose.SendTexture {
		return nil, fmt.Errorf("core: semantic ladder tier 0 must not send texture (tier 1 adds it)")
	}
	return NewTierLadder([]Tier{
		{Name: "keypoint", Bitrate: bitrates[0], Encoder: pose},
		{
			Name: "keypoint+texture", Bitrate: bitrates[1],
			Derive: func(c capture.Capture, lower EncodedFrame) (EncodedFrame, error) {
				out := EncodedFrame{Channels: make([]ChannelPayload, 0, len(lower.Channels)+1)}
				if len(c.Views) > 0 && c.Views[0].Colors != nil {
					intr := c.Views[0].Camera.Intr
					tex, err := texture.CompressBTC(c.Views[0].Colors, intr.Width, intr.Height)
					if err != nil {
						return EncodedFrame{}, fmt.Errorf("core: texture compress: %w", err)
					}
					// Texture precedes pose, exactly as KeypointEncoder
					// orders it; EndOfFrame stays on the pose payload.
					out.Channels = append(out.Channels, ChannelPayload{
						Channel: ChanTextureData,
						Flags:   transport.FlagKeyframe | transport.FlagCompressed,
						Payload: tex,
					})
				}
				out.Channels = append(out.Channels, lower.Channels...)
				return out, nil
			},
		},
		{
			Name: "hybrid", Bitrate: bitrates[2],
			Derive: func(c capture.Capture, lower EncodedFrame) (EncodedFrame, error) {
				out := EncodedFrame{Channels: make([]ChannelPayload, 0, len(lower.Channels)+1)}
				for _, ch := range lower.Channels {
					// The foveal mesh closes the frame, as in
					// HybridEncoder.Encode — but strip the flag on a copy;
					// tier 1 still ships the original channels.
					ch.Flags &^= transport.FlagEndOfFrame
					out.Channels = append(out.Channels, ch)
				}
				foveal := hybrid.fovealSubmesh(c.Mesh)
				var payload []byte
				if foveal != nil && len(foveal.Faces) > 0 {
					payload = dracogo.EncodeMesh(foveal, hybrid.MeshOptions)
				}
				out.Channels = append(out.Channels, ChannelPayload{
					Channel: ChanFovealMesh,
					Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
					Payload: payload, // empty payload = no foveal region this frame
				})
				return out, nil
			},
		},
	})
}
