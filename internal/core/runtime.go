package core

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"semholo/internal/capture"
	"semholo/internal/geom"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// controlMsg is the JSON control-plane message flowing back toward a
// sender: gaze updates from a receiver, tier-keyframe requests from a
// relay. Any other kind is ignored.
type controlMsg struct {
	Kind string `json:"kind"` // "gaze" | "keyframe"
	// Gaze anchor in world coordinates.
	Gaze *[3]float64 `json:"gaze,omitempty"`
	// Tier names the ladder rung a "keyframe" request targets: a relay
	// preparing one subscriber's tier switch asks the sender for a
	// self-contained frame at that rung.
	Tier int `json:"tier,omitempty"`
}

// Sender drives one direction of a telepresence session: it encodes
// captures and ships them, processing control messages (gaze, tier
// keyframe requests) from downstream between frames.
type Sender struct {
	Session *transport.Session
	Encoder Encoder
	// Obs, when set, records encode/send stage spans into the shared
	// metrics registry and threads a hop-annotated trace extension
	// through every wire frame: capture timestamp, trace ID, and a
	// HopSender record each relay/service/receiver on the path extends —
	// so the receiver can attribute true cross-site motion-to-photon
	// latency per frame, hop by hop.
	Obs *obs.PipelineMetrics
	// Site is this sender's byte ID in hop records.
	Site byte

	// OnGaze, when set, receives remote gaze anchors (wired to the
	// hybrid encoder by NewHybridSender-style constructors or manually).
	OnGaze func(geom.Vec3)
	// OnKeyframeRequest receives tier-keyframe requests (a relay
	// preparing a subscriber's tier switch); typically wired to
	// TierLadder.RequestKeyframe.
	OnKeyframeRequest func(tier int)

	traceSeq atomic.Uint64
	// hopScratch is the one-hop sender path every wire frame of a media
	// frame shares, and frames the media frame's wire frames handed to
	// Session.SendBatch. Both are reused across media frames: the batch is
	// serialized before SendBatch returns, so they are safe to reuse with
	// a single transmitting goroutine.
	hopScratch [1]obs.Hop
	frames     []transport.Frame
}

// SendFrame encodes and transmits one capture, taking "now" as the
// capture instant.
func (s *Sender) SendFrame(c capture.Capture) error {
	return s.SendFrameCaptured(c, time.Now())
}

// SendFrameCaptured encodes and transmits one capture taken at
// capturedAt — the wall-clock origin of the frame's motion-to-photon
// trace when Obs is set. It is the sequential composition of the
// EncodeFrame and Transmit stages the staged runtime overlaps.
func (s *Sender) SendFrameCaptured(c capture.Capture, capturedAt time.Time) error {
	enc, err := s.EncodeFrame(c)
	if err != nil {
		return err
	}
	return s.Transmit(enc, capturedAt)
}

// EncodeFrame runs the encode stage alone: one capture in, one encoded
// media frame out, with the encode stage span recorded. Safe for a
// dedicated encode goroutine as long as it is the only caller (encoders
// are stateful).
func (s *Sender) EncodeFrame(c capture.Capture) (EncodedFrame, error) {
	stop := s.Obs.StartStage(obs.StageEncode)
	enc, err := s.Encoder.Encode(c)
	stop()
	if err != nil {
		return EncodedFrame{}, fmt.Errorf("core: encode: %w", err)
	}
	return enc, nil
}

// Transmit runs the send stage alone: it ships an already-encoded media
// frame, stamping the trace extension (capture timestamp + fresh trace
// ID) when Obs is set. Not safe for concurrent use with itself or
// TransmitLadder: the wire frames are built in a scratch the Sender
// reuses across media frames, so one goroutine transmits (as trace-ID
// ordering needs anyway).
func (s *Sender) Transmit(enc EncodedFrame, capturedAt time.Time) error {
	tiers := [1]EncodedFrame{enc}
	return s.transmit(tiers[:], capturedAt)
}

// transmit ships one media frame — a ladder of len(tiers) rungs,
// cheapest first, or a single untiered encoding — as one session batch:
// every channel of every rung leaves in a single connection write. Only
// a ladder of more than one rung is tier-stamped.
func (s *Sender) transmit(tiers []EncodedFrame, capturedAt time.Time) error {
	base := transport.Frame{Type: transport.TypeSemantic}
	if len(tiers) > 1 {
		base.Flags |= transport.FlagTier
		base.TierCount = uint8(len(tiers))
	}
	if s.Obs != nil {
		// One trace ID and one HopSender record span the whole media frame
		// — every tier of it — so the flight recorder and hop traces
		// attribute all rungs to the same capture instant: capture stamp as
		// recv, send stamped by the session at write time (SendMicros == 0).
		base.Flags |= transport.FlagTrace | transport.FlagHops
		base.CaptureTS = uint64(capturedAt.UnixMicro())
		base.TraceID = s.traceSeq.Add(1)
		s.hopScratch[0] = obs.Hop{Kind: obs.HopSender, Site: s.Site, RecvMicros: base.CaptureTS}
		base.Hops = s.hopScratch[:]
	}
	frames, bytes := s.frames[:0], 0
	for ti, enc := range tiers {
		for _, ch := range enc.Channels {
			f := base
			f.Channel, f.Flags, f.Payload, f.Tier = ch.Channel, base.Flags|ch.Flags, ch.Payload, uint8(ti)
			frames = append(frames, f)
			bytes += len(ch.Payload)
		}
	}
	_, err := s.Session.SendBatch(frames)
	// Keep the array, drop the payload references: the scratch must not
	// pin encoder buffers between media frames.
	clear(frames)
	s.frames = frames[:0]
	if err != nil {
		return fmt.Errorf("core: send media frame: %w", err)
	}
	if s.Obs != nil {
		obs.Flight.Record(obs.EvFrameSent, "sender", base.TraceID, int64(bytes), int64(base.TierCount))
	}
	return nil
}

// HandleControl processes one received control frame (senders that also
// Recv — full-duplex sessions — route TypeControl frames here).
func (s *Sender) HandleControl(f transport.Frame) error {
	var msg controlMsg
	if err := json.Unmarshal(f.Payload, &msg); err != nil {
		return fmt.Errorf("core: control message: %w", err)
	}
	switch msg.Kind {
	case "gaze":
		if msg.Gaze != nil && s.OnGaze != nil {
			s.OnGaze(geom.V3(msg.Gaze[0], msg.Gaze[1], msg.Gaze[2]))
		}
	case "keyframe":
		if s.OnKeyframeRequest != nil {
			s.OnKeyframeRequest(msg.Tier)
		}
	}
	return nil
}

// TransmitLadder ships one media frame at every rung of a tier ladder,
// tier-stamping each wire frame so a relay can assemble a
// SharedFrameSet and serve each subscriber its own rung. A one-rung
// ladder is the plain Transmit — no tier extension, wire bytes identical
// to the untiered sender. Like Transmit, one goroutine at a time.
func (s *Sender) TransmitLadder(lf LadderFrame, capturedAt time.Time) error {
	if len(lf.Tiers) == 0 || len(lf.Tiers) > transport.MaxTiers {
		return fmt.Errorf("core: ladder frame with %d tiers (want 1..%d)", len(lf.Tiers), transport.MaxTiers)
	}
	return s.transmit(lf.Tiers, capturedAt)
}

// Receiver drives the other direction: it collects channel payloads
// until an end-of-frame marker, decodes the media frame, and reports
// gaze back to the sender.
type Receiver struct {
	Session *transport.Session
	Decoder Decoder
	// Obs, when set, records network/decode spans and end-to-end
	// motion-to-photon latency from the trace extension traced senders
	// put on the wire, and attaches the FrameTrace to decoded frames.
	Obs *obs.PipelineMetrics
	// Site is this receiver's byte ID in hop records.
	Site byte
	// Traces, when set, receives completed FrameTraces for
	// /debug/trace/<id> lookup; nil publishes to the process-wide
	// obs.Traces store (always-on, like the flight recorder).
	Traces *obs.TraceStore

	// pending accumulates one media frame's channel payloads; its backing
	// array is reused across frames (decoders consume the slice
	// synchronously and never retain it), so steady-state receive does
	// not allocate a fresh []Frame per frame.
	pending []transport.Frame
	// lastTier tracks the tier of the previously decoded media frame
	// (-1 before any tiered frame), for tier-switch flight events.
	lastTier int
	seenTier bool
}

// RawFrame is one media frame's wire frames as collected off the
// session, before decoding: the unit the staged runtime hands from the
// recv stage to the decode stage.
type RawFrame struct {
	// Frames are the media frame's channel payloads (payloads owned).
	Frames []transport.Frame
	// Trace carries the cross-site timing record when the sender traced
	// the frame (arrival stamped; decode time still zero).
	Trace *obs.FrameTrace
}

// NextRaw blocks until one full media frame has arrived and returns its
// wire frames undecoded. The returned RawFrame owns its slice — the
// caller may decode it on another goroutine. Transport errors surface
// verbatim (io.EOF / closed pipe when the sender is done); a TypeClose
// frame yields ErrSessionClosed.
func (r *Receiver) NextRaw() (RawFrame, error) {
	for {
		f, err := r.Session.Recv()
		if err != nil {
			return RawFrame{}, err
		}
		switch f.Type {
		case transport.TypeClose:
			return RawFrame{}, ErrSessionClosed
		case transport.TypeControl:
			// Control frames are handled by the application; ignore here.
			continue
		case transport.TypeSemantic:
			r.pending = append(r.pending, f.Clone())
			if f.Flags&transport.FlagEndOfFrame == 0 {
				continue
			}
			// The end-of-frame wire frame carries the media frame's trace
			// extension; its arrival closes the network span.
			var ft *obs.FrameTrace
			if f.Traced() {
				ft = &obs.FrameTrace{
					TraceID:       f.TraceID,
					CaptureMicros: f.CaptureTS,
					SendMicros:    f.SendTS,
					ArrivedAt:     time.Now(),
				}
				if len(f.Hops) > 0 {
					ft.Hops = append([]obs.Hop(nil), f.Hops...)
				}
				obs.Flight.Record(obs.EvFrameArrived, "receiver", f.TraceID, int64(len(f.Payload)), 0)
			}
			raw := RawFrame{Frames: r.pending, Trace: ft}
			// Ownership moves to the caller; the next media frame starts
			// from a fresh slice unless NextFrame reclaims this one.
			r.pending = nil
			return raw, nil
		default:
			continue
		}
	}
}

// DecodeRaw runs the decode stage alone: one collected media frame in,
// one decoded FrameData out, with the decode stage span and the
// end-to-end motion-to-photon observation recorded. Safe for a
// dedicated decode goroutine as long as it is the only caller (decoders
// are stateful).
func (r *Receiver) DecodeRaw(raw RawFrame) (FrameData, error) {
	r.observeTierSwitch(raw)
	stop := r.Obs.StartStage(obs.StageDecode)
	data, err := r.Decoder.Decode(raw.Frames)
	stop()
	if err != nil {
		return FrameData{}, err
	}
	if raw.Trace != nil {
		raw.Trace.DecodedAt = time.Now()
		// Terminate the hop path with the receiver's own hop (arrival →
		// decode completion), so the waterfall telescopes to the full e2e
		// span — then publish the completed trace for /debug/trace/<id>.
		if len(raw.Trace.Hops) > 0 {
			raw.Trace.Hops = append(raw.Trace.Hops, obs.Hop{
				Kind: obs.HopReceiver, Site: r.Site,
				RecvMicros: uint64(raw.Trace.ArrivedAt.UnixMicro()),
				SendMicros: uint64(raw.Trace.DecodedAt.UnixMicro()),
			})
		}
		r.Obs.ObserveTrace(*raw.Trace)
		store := r.Traces
		if store == nil {
			store = obs.Traces
		}
		store.Put(*raw.Trace)
		obs.Flight.Record(obs.EvFrameDecoded, "receiver", raw.Trace.TraceID,
			raw.Trace.DecodedAt.Sub(raw.Trace.ArrivedAt).Microseconds(), 0)
		data.Trace = raw.Trace
	}
	return data, nil
}

// observeTierSwitch handles the receive side of a mid-stream tier
// switch: when any wire frame carries the tier-switch marker, the
// decoder's cross-frame state (warm-start bands, texture history,
// delta references) is dropped on that keyframe boundary — and only
// there — so the switched stream decodes byte-identically to a cold
// decode of the new tier, with no warm-start artifacts from the old
// tier's state.
func (r *Receiver) observeTierSwitch(raw RawFrame) {
	switched := false
	tier := -1
	for _, f := range raw.Frames {
		if f.Tiered() {
			tier = int(f.Tier)
		}
		if f.Flags&transport.FlagTierSwitch != 0 {
			switched = true
		}
	}
	if switched {
		if rs, ok := r.Decoder.(StateResetter); ok {
			rs.ResetState()
		}
		var traceID uint64
		if raw.Trace != nil {
			traceID = raw.Trace.TraceID
		}
		from := int64(-1)
		if r.seenTier {
			from = int64(r.lastTier)
		}
		obs.Flight.Record(obs.EvTierSwitch, "receiver", traceID, from, int64(tier))
	}
	if tier >= 0 {
		r.lastTier, r.seenTier = tier, true
	}
}

// NextFrame blocks until one full media frame has arrived and decodes
// it — the sequential composition of the NextRaw and DecodeRaw stages
// the staged runtime overlaps. It returns transport errors verbatim
// (io.EOF / closed pipe when the sender is done) and a TypeClose
// sentinel error on graceful close.
func (r *Receiver) NextFrame() (FrameData, error) {
	raw, err := r.NextRaw()
	if err != nil {
		return FrameData{}, err
	}
	data, err := r.DecodeRaw(raw)
	// Sequential use: decode consumed the frames synchronously, so the
	// backing array is reusable and steady-state receive stays
	// allocation-free.
	r.pending = raw.Frames[:0]
	return data, err
}

// ErrSessionClosed reports a graceful peer close.
var ErrSessionClosed = fmt.Errorf("core: session closed by peer")

// ReportGaze sends the local gaze anchor to the sender (for foveated
// encoding).
func (r *Receiver) ReportGaze(anchor geom.Vec3) error {
	g := [3]float64{anchor.X, anchor.Y, anchor.Z}
	payload, err := json.Marshal(controlMsg{Kind: "gaze", Gaze: &g})
	if err != nil {
		return err
	}
	return r.Session.SendControl(payload)
}
