// Serialize-once broadcast path. A relay fanning one ingress frame out
// to N subscribers must not pay N header serializations, N CRC passes
// over the payload, and N payload memcpys — the payload dominates all
// three. SharedFrame captures the ingress frame once (one payload copy,
// one payload CRC pass) and WriteSharedFrameLeg emits it per subscriber by
// rebuilding only the 24-byte header (plus the optional 24-byte trace
// extension), re-checksumming those few bytes, and splicing the cached
// payload CRC in with precomputed CRC32 shift tables. The payload bytes
// themselves are written with scatter-gather I/O (net.Buffers), so
// per-subscriber cost is O(header), not O(payload), while the wire
// bytes stay exactly what FrameWriter.WriteFrame would have produced —
// including per-(subscriber,channel) sequence numbers. A media frame
// that spans several wire frames trades the by-reference write for one
// memcpy per leg: bufferSharedFrameLeg lays the same bytes out
// contiguously so the whole media frame is a single connection write
// (still no re-hash — the cached CRC is spliced in either way).
package transport

import (
	"fmt"
	"hash/crc32"
	"net"
	"sync"

	"encoding/binary"

	"semholo/internal/obs"
)

// crcShift is a GF(2) linear operator on CRC32 states: column n holds
// the image of basis vector 1<<n. Operators compose the zlib
// crc32_combine identity: apply(op_len(B), CRC(A)) ^ CRC(B) == CRC(A||B).
type crcShift [32]uint32

// apply multiplies the operator by a CRC state.
func (m *crcShift) apply(vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; vec >>= 1 {
		if vec&1 != 0 {
			sum ^= m[i]
		}
		i++
	}
	return sum
}

// square sets m to src·src.
func (m *crcShift) square(src *crcShift) {
	for n := range m {
		m[n] = src.apply(src[n])
	}
}

// ieeeReversedPoly is the reflected CRC-32/IEEE polynomial, matching
// hash/crc32's bit order.
const ieeeReversedPoly uint32 = 0xedb88320

// shiftBits is the number of power-of-two shift tables: payload lengths
// run up to MaxPayload (16 MiB = 2^24) inclusive, so bits 0..24.
const shiftBits = 25

// shiftTables[k] advances a CRC32 state past 2^k appended zero-length
// bytes, expressed byte-wise (four 256-entry tables) so one shift costs
// four lookups and three XORs instead of a 32-step matrix multiply.
// Built lazily: only processes that actually broadcast pay the one-time
// (~1 ms) construction.
var (
	shiftTables     [shiftBits][4][256]uint32
	shiftTablesOnce sync.Once
)

func initShiftTables() {
	// one-bit shift operator, squared up to one byte (8 bits), then
	// repeatedly squared for 2, 4, 8, ... bytes.
	var op, tmp crcShift
	op[0] = ieeeReversedPoly
	row := uint32(1)
	for n := 1; n < 32; n++ {
		op[n] = row
		row <<= 1
	}
	tmp.square(&op) // 2 bits
	op.square(&tmp) // 4 bits
	tmp.square(&op) // 8 bits = 1 byte
	op = tmp
	for k := 0; k < shiftBits; k++ {
		for j := 0; j < 4; j++ {
			for b := 0; b < 256; b++ {
				shiftTables[k][j][b] = op.apply(uint32(b) << (8 * j))
			}
		}
		tmp.square(&op)
		op = tmp
	}
}

// crcShiftLen advances a CRC32 state past n appended bytes using the
// precomputed power-of-two tables: popcount(n) shifts of four table
// lookups each.
func crcShiftLen(crc uint32, n int) uint32 {
	for k := 0; n != 0; n >>= 1 {
		if n&1 != 0 {
			t := &shiftTables[k]
			crc = t[0][crc&0xff] ^ t[1][(crc>>8)&0xff] ^ t[2][(crc>>16)&0xff] ^ t[3][crc>>24]
		}
		k++
	}
	return crc
}

// crcCombine joins two independently computed CRC32s: crcCombine(CRC(A),
// CRC(B), len(B)) == CRC(A||B).
func crcCombine(crc1, crc2 uint32, len2 int) uint32 {
	return crcShiftLen(crc1, len2) ^ crc2
}

// SharedFrame is an immutable broadcast frame: the payload is copied and
// checksummed exactly once at construction, then any number of sessions
// can emit it with per-session sequence numbers and timestamps via
// SendSharedBatch / WriteSharedFrameLeg. Exported fields are fixed at
// build time and must not be mutated once the frame has been handed to
// a writer.
type SharedFrame struct {
	Type    FrameType
	Channel uint16
	Flags   uint16

	// CaptureTS and TraceID are forwarded verbatim when Flags carries
	// FlagTrace; SendTS is restamped per subscriber at write time (the
	// extension lives in the per-subscriber header block, so forwarding
	// trace data costs no extra payload work).
	CaptureTS uint64
	TraceID   uint64

	// Tier and TierCount are forwarded verbatim when Flags carries
	// FlagTier: which rung of the sender's tier ladder this frame encodes
	// and the ladder size. Like the other extensions the 2-byte tier
	// block lives in the per-subscriber header, so a relay forwarding one
	// rung of a SharedFrameSet pays no payload work.
	Tier      uint8
	TierCount uint8

	// hops is the hop path carried so far (ingress hops included), valid
	// when Flags carries FlagHops. Like the trace extension it lives in
	// the per-subscriber header block, so forwarding it — and appending
	// one per-egress-leg final hop via WriteSharedFrameLeg — keeps the
	// payload untouched and the cached payload CRC valid. Appends must
	// happen before the frame is handed to any writer.
	hops []obs.Hop

	payload    []byte
	payloadCRC uint32
}

// NewSharedFrame builds a serialize-once frame, performing the single
// payload copy and the single payload CRC pass.
func NewSharedFrame(typ FrameType, channel, flags uint16, payload []byte) (*SharedFrame, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	if err := checkTraceFlags(flags, 0); err != nil {
		return nil, err
	}
	shiftTablesOnce.Do(initShiftTables)
	sf := &SharedFrame{Type: typ, Channel: channel, Flags: flags}
	sf.payload = append([]byte(nil), payload...)
	sf.payloadCRC = crc32.ChecksumIEEE(sf.payload)
	return sf, nil
}

// SharedFromFrame captures a received frame (e.g. a relay ingress frame
// whose payload aliases the reader's buffer) as a SharedFrame, carrying
// the trace extension across: SharedFromWire over a copy of the payload
// and that copy's CRC, so both capture paths validate alike.
func SharedFromFrame(f Frame) (*SharedFrame, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(f.Payload))
	}
	payload := append([]byte(nil), f.Payload...)
	return SharedFromWire(f, payload, crc32.ChecksumIEEE(payload))
}

// SharedFromWire captures a received frame as a SharedFrame by adopting
// an already-owned payload buffer and its payload-only CRC32 — the
// trunk-ingress fast path. Where SharedFromFrame pays one payload copy
// and one CRC pass, SharedFromWire pays neither: the buffer (typically
// detached from a FrameReader via AdoptPayload, whose verification
// already produced the CRC) is referenced as-is, so a relay shard
// re-sharing a frame received over a trunk costs the same per-frame work
// as forwarding a locally published one. The caller must not mutate
// payload after the call; like every SharedFrame payload it is shared by
// all subscribers.
func SharedFromWire(f Frame, payload []byte, payloadCRC uint32) (*SharedFrame, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	if err := checkTraceFlags(f.Flags, len(f.Hops)); err != nil {
		return nil, err
	}
	shiftTablesOnce.Do(initShiftTables)
	sf := &SharedFrame{
		Type: f.Type, Channel: f.Channel, Flags: f.Flags,
		CaptureTS: f.CaptureTS, TraceID: f.TraceID,
		Tier: f.Tier, TierCount: f.TierCount,
		payload: payload, payloadCRC: payloadCRC,
	}
	if len(f.Hops) > 0 {
		sf.hops = append([]obs.Hop(nil), f.Hops...)
	}
	return sf, nil
}

// Hops exposes the hop path captured so far. Read-only for callers.
func (sf *SharedFrame) Hops() []obs.Hop { return sf.hops }

// AppendHop appends one hop record (e.g. the relay-ingress hop) and
// sets the trace flags. Must be called before the frame is handed to any
// writer — the hop list is shared by every subscriber. Reports whether
// the hop fit; room for the per-egress-leg final hop is reserved, so a
// carried path may hold at most obs.MaxTraceHops-1 records.
func (sf *SharedFrame) AppendHop(h obs.Hop) bool {
	if len(sf.hops) >= obs.MaxTraceHops-1 {
		return false
	}
	sf.hops = append(sf.hops, h)
	sf.Flags |= FlagTrace | FlagHops
	return true
}

// WireLen is the frame's on-the-wire size (per-egress-leg hops excluded;
// see legWireLen).
func (sf *SharedFrame) WireLen() int {
	n := headerLen + len(sf.payload) + trailerLen
	if sf.Flags&FlagTrace != 0 {
		n += traceExtLen
	}
	if sf.Flags&FlagHops != 0 {
		n += 1 + len(sf.hops)*hopRecordLen
	}
	if sf.Flags&FlagTier != 0 {
		n += tierExtLen
	}
	return n
}

// legWireLen is the on-the-wire size of one per-leg emission: one hop
// record over WireLen when an egress hop is given and the frame is
// hop-traced, unless the carried path is already full — then the egress
// hop is dropped at write time and the sizes coincide.
func (sf *SharedFrame) legWireLen(egress *obs.Hop) int {
	if egress != nil && sf.Flags&FlagHops != 0 && len(sf.hops) < obs.MaxTraceHops {
		return sf.WireLen() + hopRecordLen
	}
	return sf.WireLen()
}

// WriteSharedFrameLeg emits sf with the given sequence number and
// sender timestamp (and, for traced frames, send wall clock),
// byte-identical to FrameWriter.WriteFrame of the equivalent Frame. Only
// the header and its extensions are serialized and checksummed here; the
// payload is neither copied nor re-hashed — its cached CRC is spliced in
// via the shift tables. Not safe for concurrent use, like WriteFrame.
//
// egress, when non-nil and the frame is hop-traced, is appended as this
// leg's final hop record — each egress leg of a fan-out gets its own, so
// a subscriber sees exactly the path its copy took. An egress SendMicros
// of zero is stamped with sendTS (the per-leg write wall clock). If the
// carried path already holds obs.MaxTraceHops records, the egress hop is
// dropped — never a malformed frame — and an obs.EvHopDropped flight
// event records the truncation. orFlags is OR'd into the emitted
// header's flags field; it may only carry flag bits that gate no
// extension bytes — today that is FlagTierSwitch, the per-leg
// tier-change marker a relay stamps on the first frame after switching a
// subscriber's tier.
// The shared payload and its cached CRC are untouched either way.
//
// The payload goes out by reference: header, payload and trailer are
// three scatter-gather segments, which on anything but a TCP socket are
// three sequential writes. On a saturated leg that is a feature — the
// trailing 4-byte write returns only once the link has taken the whole
// frame, so the caller picks its next frame at the last moment instead
// of committing to one a serialisation time early.
func (fw *FrameWriter) WriteSharedFrameLeg(sf *SharedFrame, seq uint32, timestamp, sendTS uint64, egress *obs.Hop, orFlags uint16) error {
	if err := checkSharedLeg(sf, orFlags); err != nil {
		return err
	}
	if err := fw.flush(); err != nil {
		return err
	}
	b := appendSharedHead(fw.buf, sf, seq, timestamp, sendTS, egress, orFlags)
	crc := crcCombine(crc32.ChecksumIEEE(b), sf.payloadCRC, len(sf.payload))
	full := binary.BigEndian.AppendUint32(b, crc) // header ∥ trailer, contiguous in fw.buf
	fw.buf = full[:0]
	if len(sf.payload) == 0 {
		_, err := fw.w.Write(full)
		return err
	}
	fw.vec[0], fw.vec[1], fw.vec[2] = full[:len(b)], sf.payload, full[len(b):]
	fw.bufs = net.Buffers(fw.vec[:])
	_, err := fw.bufs.WriteTo(fw.w)
	// Drop the payload reference so the writer does not pin shared
	// broadcast buffers between frames.
	fw.bufs = nil
	fw.vec[0], fw.vec[1], fw.vec[2] = nil, nil, nil
	return err
}

// bufferSharedFrameLeg is WriteSharedFrameLeg into the batch buffer: the
// same bytes — header rebuilt per leg, cached payload CRC spliced in,
// never re-hashed — but copied contiguously behind the frames already
// buffered, so flush sends the whole batch in one Write. A single frame
// larger than maxBatchBytes is not worth copying: it is written at once,
// by reference, after the frames before it.
func (fw *FrameWriter) bufferSharedFrameLeg(sf *SharedFrame, seq uint32, timestamp, sendTS uint64, egress *obs.Hop, orFlags uint16) error {
	n := sf.legWireLen(egress)
	if n > maxBatchBytes {
		return fw.WriteSharedFrameLeg(sf, seq, timestamp, sendTS, egress, orFlags)
	}
	if err := checkSharedLeg(sf, orFlags); err != nil {
		return err
	}
	if err := fw.makeRoom(n); err != nil {
		return err
	}
	start := len(fw.buf)
	b := appendSharedHead(fw.buf, sf, seq, timestamp, sendTS, egress, orFlags)
	crc := crcCombine(crc32.ChecksumIEEE(b[start:]), sf.payloadCRC, len(sf.payload))
	b = append(b, sf.payload...)
	fw.buf = binary.BigEndian.AppendUint32(b, crc)
	return nil
}

// checkSharedLeg validates one per-leg emission of sf before any byte
// of it is serialized.
func checkSharedLeg(sf *SharedFrame, orFlags uint16) error {
	if orFlags&^FlagTierSwitch != 0 {
		return fmt.Errorf("%w: per-leg flags %#x gate extension bytes", ErrBadHeader, orFlags)
	}
	if sf.Flags&FlagTier == 0 {
		if (sf.Flags|orFlags)&FlagTierSwitch != 0 {
			// A switch marker on an untiered frame would be rejected by every
			// reader; emitting it is a caller bug.
			return fmt.Errorf("%w: FlagTierSwitch without FlagTier", ErrBadHeader)
		}
		return nil
	}
	return checkTierExt(sf.Tier, sf.TierCount)
}

// appendSharedHead serializes everything of a per-leg emission that
// precedes the payload — header and extensions, egress hop included —
// onto b. The caller has run checkSharedLeg.
func appendSharedHead(b []byte, sf *SharedFrame, seq uint32, timestamp, sendTS uint64, egress *obs.Hop, orFlags uint16) []byte {
	b = appendHeader(b, sf.Type, sf.Channel, sf.Flags|orFlags, seq, timestamp, len(sf.payload))
	if sf.Flags&FlagTrace != 0 {
		b = appendTraceExt(b, sf.CaptureTS, sendTS, sf.TraceID)
	}
	if sf.Flags&FlagHops != 0 {
		if egress != nil && len(sf.hops) >= obs.MaxTraceHops {
			// A forwarded frame may arrive already carrying a wire-valid full
			// path (SharedFromFrame keeps it verbatim; only AppendHop reserves
			// the egress slot). Mirror AppendHop's drop-don't-fail policy:
			// forward the carried path unchanged rather than emit a 9-hop frame
			// no reader accepts.
			obs.Flight.Record(obs.EvHopDropped, "transport:egress", sf.TraceID,
				int64(egress.Kind), int64(len(sf.hops)))
			egress = nil
		}
		if egress != nil && egress.SendMicros == 0 {
			e := *egress
			e.SendMicros = sendTS
			egress = &e
		}
		b = appendHops(b, sf.hops, egress)
	}
	if sf.Flags&FlagTier != 0 {
		b = appendTierExt(b, sf.Tier, sf.TierCount)
	}
	return b
}
