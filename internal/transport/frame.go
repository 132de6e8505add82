// Package transport implements SemHolo's wire protocol: length-prefixed,
// CRC-protected frames multiplexing semantic channels over any net.Conn
// (Figure 1's "Internet" hop). The design follows the preallocated-decode
// philosophy of high-throughput packet libraries: a FrameReader decodes
// into reusable buffers with no per-frame allocation on the hot path, and
// a FrameWriter serializes through a single scratch buffer.
//
// Frame layout (big-endian):
//
//	magic(2)=0x5348 version(1) type(1) channel(2) flags(2)
//	seq(4) timestamp(8, µs) length(4)
//	[trace ext(24): captureTS(8, unix µs) sendTS(8, unix µs) traceID(8)]
//	[hop ext: count(1) then count × hop(18): kind(1) site(1)
//	 recvTS(8, unix µs) sendTS(8, unix µs)]
//	[tier ext(2): tier(1) tierCount(1)]
//	payload CRC32(4, IEEE, header+exts+payload)
//
// The trace extension is present only when FlagTrace is set, so frames
// written by pre-trace senders still decode (and trace-free frames stay
// byte-identical to the original format). The hop extension (FlagHops,
// which requires FlagTrace) appends up to obs.MaxTraceHops per-site hop
// records after the base extension: each site on the path (sender,
// relay ingress/egress, service tenant, receiver) stamps when it saw
// and when it forwarded the frame, so a single frame carries its own
// latency waterfall. The tier extension (FlagTier) identifies which
// rung of a semantic tier ladder the frame encodes and how many rungs
// the ladder has, so a relay can hold every tier of a media frame and
// each egress leg can pick its own. All extensions are covered by the
// frame CRC. Frames without the corresponding flag carry no extension
// bytes, so pre-tier (and pre-trace) frames remain bit-identical to the
// legacy format.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"semholo/internal/obs"
)

// Protocol constants.
const (
	Magic        uint16 = 0x5348 // "SH"
	Version      byte   = 1
	headerLen           = 2 + 1 + 1 + 2 + 2 + 4 + 8 + 4
	traceExtLen         = 8 + 8 + 8
	hopRecordLen        = 1 + 1 + 8 + 8
	maxHopExtLen        = 1 + obs.MaxTraceHops*hopRecordLen
	tierExtLen          = 1 + 1
	trailerLen          = 4
	// MaxPayload bounds a frame payload (16 MiB).
	MaxPayload = 16 << 20
	// MaxTiers bounds a tier ladder's rung count: the one-byte wire field
	// allows 255, but bounding it lets relays track per-tier completion in
	// a single machine word and rejects corrupt headers early.
	MaxTiers = 8
)

// FrameType discriminates protocol frames.
type FrameType byte

// Frame types.
const (
	TypeInvalid FrameType = iota
	TypeHandshake
	TypeHandshakeAck
	TypeSemantic
	TypeControl
	TypePing
	TypePong
	TypeClose
)

func (t FrameType) String() string {
	switch t {
	case TypeHandshake:
		return "handshake"
	case TypeHandshakeAck:
		return "handshake-ack"
	case TypeSemantic:
		return "semantic"
	case TypeControl:
		return "control"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeClose:
		return "close"
	default:
		return fmt.Sprintf("invalid(%d)", byte(t))
	}
}

// Flag bits.
const (
	// FlagKeyframe marks self-contained frames (vs deltas).
	FlagKeyframe uint16 = 1 << 0
	// FlagCompressed marks lzr-compressed payloads.
	FlagCompressed uint16 = 1 << 1
	// FlagEndOfFrame marks the last channel frame of a media frame.
	FlagEndOfFrame uint16 = 1 << 2
	// FlagTrace marks frames carrying the 24-byte end-to-end trace
	// extension (capture/send wall-clock stamps + trace ID) between
	// header and payload. Frames without it decode exactly as before.
	FlagTrace uint16 = 1 << 3
	// FlagHops marks frames carrying the variable-length hop extension
	// (count byte + up to obs.MaxTraceHops 18-byte hop records) after the
	// base trace extension. Requires FlagTrace; readers and writers
	// reject the combination FlagHops-without-FlagTrace.
	FlagHops uint16 = 1 << 4
	// FlagTier marks frames carrying the 2-byte tier extension (tier
	// index + ladder size) after the hop extension: one rung of a
	// semantic tier ladder. Frames without it are single-encoding and
	// stay byte-identical to the pre-tier wire format.
	FlagTier uint16 = 1 << 5
	// FlagTierSwitch marks the first frame a given egress leg emits after
	// changing tier, telling the receiver to reset per-stream decoder
	// state (texture arenas, delta documents) before decoding so it never
	// decodes against another tier's state. It costs no wire
	// bytes (the flags field already exists) and is stamped per leg.
	// Requires FlagTier; readers and writers reject it on untiered
	// frames.
	FlagTierSwitch uint16 = 1 << 6
)

// Well-known channels. Semantic payload channels start at ChannelData.
const (
	ChannelControl uint16 = 0
	ChannelData    uint16 = 1
)

// Frame is one protocol data unit.
type Frame struct {
	Type      FrameType
	Channel   uint16
	Flags     uint16
	Seq       uint32
	Timestamp uint64 // sender clock, microseconds

	// Trace extension, valid when Flags&FlagTrace != 0: the capture-site
	// wall clock at capture and at send (unix µs) plus the media frame's
	// trace ID — what lets the receiver compute true cross-site
	// motion-to-photon latency per frame (see internal/obs.FrameTrace).
	CaptureTS uint64
	SendTS    uint64
	TraceID   uint64

	// Hops is the hop-annotated path record, valid when Flags&FlagHops
	// != 0: one entry per site that handled the frame, in path order,
	// bounded at obs.MaxTraceHops. After ReadFrame the slice aliases a
	// reader-owned array overwritten by the next read; Clone to retain.
	Hops []obs.Hop

	// Tier extension, valid when Flags&FlagTier != 0: which rung of the
	// sender's semantic tier ladder this frame encodes (0 = cheapest) and
	// how many rungs the ladder has (1..MaxTiers).
	Tier      uint8
	TierCount uint8

	Payload []byte
}

// Traced reports whether the frame carries the trace extension.
func (f Frame) Traced() bool { return f.Flags&FlagTrace != 0 }

// HopTraced reports whether the frame carries the hop extension.
func (f Frame) HopTraced() bool { return f.Flags&FlagHops != 0 }

// Tiered reports whether the frame carries the tier extension.
func (f Frame) Tiered() bool { return f.Flags&FlagTier != 0 }

// AppendHop appends one hop record to the frame's path, setting the
// trace flags, and reports whether it fit (the path is bounded at
// obs.MaxTraceHops; a full path drops further hops rather than failing
// the frame).
func (f *Frame) AppendHop(h obs.Hop) bool {
	if len(f.Hops) >= obs.MaxTraceHops {
		return false
	}
	f.Hops = append(f.Hops, h)
	f.Flags |= FlagTrace | FlagHops
	return true
}

// Errors.
var (
	ErrBadMagic  = errors.New("transport: bad magic")
	ErrBadCRC    = errors.New("transport: checksum mismatch")
	ErrTooLarge  = errors.New("transport: frame exceeds MaxPayload")
	ErrBadHeader = errors.New("transport: malformed header")
)

// maxBatchBytes bounds what bufferFrame / bufferSharedFrameLeg accumulate
// before the writer flushes on its own: a batch is flushed at a
// wire-frame boundary before it would pass this size, so a session's
// buffer stays bounded however many frames one media frame spans. 64 KiB
// holds the whole three-rung ladder (≈12 kB at res 64) several times over
// and is one write's worth for a kernel socket buffer.
const maxBatchBytes = 64 << 10

// FrameWriter serializes frames to an io.Writer through one reusable
// buffer. Not safe for concurrent use; Session serializes access.
//
// A frame is either written on its own (WriteFrame, WriteSharedFrameLeg)
// or buffered behind the frames before it (bufferFrame,
// bufferSharedFrameLeg) and handed to the writer with them in a single
// Write by flush — the wire bytes are the same either way, a batch is
// only fewer writes. Buffered frames live in buf; every direct write
// flushes them first, so the two styles interleave in call order.
type FrameWriter struct {
	w   io.Writer
	buf []byte
	// vec/bufs are the scatter-gather scratch for WriteSharedFrameLeg:
	// header, shared payload, trailer — written without copying the
	// payload. bufs is a writer-owned field so the net.Buffers slice
	// header never escapes to the heap per write.
	vec  [3][]byte
	bufs net.Buffers
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, 0, 4096)}
}

// appendHeader serializes the fixed 24-byte frame header. Shared by
// WriteFrame and WriteSharedFrameLeg so the two egress paths stay
// byte-identical by construction.
func appendHeader(b []byte, typ FrameType, channel, flags uint16, seq uint32, timestamp uint64, payloadLen int) []byte {
	b = binary.BigEndian.AppendUint16(b, Magic)
	b = append(b, Version, byte(typ))
	b = binary.BigEndian.AppendUint16(b, channel)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint64(b, timestamp)
	b = binary.BigEndian.AppendUint32(b, uint32(payloadLen))
	return b
}

// appendTraceExt serializes the 24-byte trace extension.
func appendTraceExt(b []byte, captureTS, sendTS, traceID uint64) []byte {
	b = binary.BigEndian.AppendUint64(b, captureTS)
	b = binary.BigEndian.AppendUint64(b, sendTS)
	b = binary.BigEndian.AppendUint64(b, traceID)
	return b
}

// appendHops serializes the hop extension: count byte plus one 18-byte
// record per hop. extra, when non-nil, is appended after hops — the
// per-egress-leg final hop of a SharedFrame broadcast.
func appendHops(b []byte, hops []obs.Hop, extra *obs.Hop) []byte {
	n := len(hops)
	if extra != nil {
		n++
	}
	b = append(b, byte(n))
	for i := range hops {
		b = appendHopRecord(b, &hops[i])
	}
	if extra != nil {
		b = appendHopRecord(b, extra)
	}
	return b
}

func appendHopRecord(b []byte, h *obs.Hop) []byte {
	b = append(b, byte(h.Kind), h.Site)
	b = binary.BigEndian.AppendUint64(b, h.RecvMicros)
	b = binary.BigEndian.AppendUint64(b, h.SendMicros)
	return b
}

// appendTierExt serializes the 2-byte tier extension.
func appendTierExt(b []byte, tier, tierCount uint8) []byte {
	return append(b, tier, tierCount)
}

// checkTraceFlags validates the extension flag combination and hop
// count shared by the write paths.
func checkTraceFlags(flags uint16, hops int) error {
	if flags&FlagHops != 0 && flags&FlagTrace == 0 {
		return fmt.Errorf("%w: FlagHops without FlagTrace", ErrBadHeader)
	}
	if flags&FlagTierSwitch != 0 && flags&FlagTier == 0 {
		return fmt.Errorf("%w: FlagTierSwitch without FlagTier", ErrBadHeader)
	}
	if hops > obs.MaxTraceHops {
		return fmt.Errorf("%w: %d hops exceeds %d", ErrBadHeader, hops, obs.MaxTraceHops)
	}
	return nil
}

// checkTierExt validates the tier extension's field ranges, shared by
// the write paths and the reader.
func checkTierExt(tier, tierCount uint8) error {
	if tierCount == 0 || tierCount > MaxTiers {
		return fmt.Errorf("%w: tier count %d outside 1..%d", ErrBadHeader, tierCount, MaxTiers)
	}
	if tier >= tierCount {
		return fmt.Errorf("%w: tier %d outside ladder of %d", ErrBadHeader, tier, tierCount)
	}
	return nil
}

// checkFrame validates what WriteFrame and bufferFrame refuse to put on
// the wire.
func checkFrame(f *Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(f.Payload))
	}
	if err := checkTraceFlags(f.Flags, len(f.Hops)); err != nil {
		return err
	}
	if f.Flags&FlagTier != 0 {
		return checkTierExt(f.Tier, f.TierCount)
	}
	return nil
}

// reserve makes room for n more bytes behind whatever is buffered,
// growing to exactly that: a session's buffer settles at the largest
// write it has made, not at the next power of two above it.
func (fw *FrameWriter) reserve(n int) {
	if cap(fw.buf)-len(fw.buf) >= n {
		return
	}
	grown := make([]byte, len(fw.buf), len(fw.buf)+n)
	copy(grown, fw.buf)
	fw.buf = grown
}

// makeRoom is reserve for one more buffered wire frame of n bytes, first
// flushing what is buffered if the frame would carry it past
// maxBatchBytes.
func (fw *FrameWriter) makeRoom(n int) error {
	if len(fw.buf) > 0 && len(fw.buf)+n > maxBatchBytes {
		if err := fw.flush(); err != nil {
			return err
		}
	}
	fw.reserve(n)
	return nil
}

// flush hands every buffered frame to the writer in one Write. A no-op
// when nothing is buffered. The buffer is empty afterwards whether or
// not the write succeeded.
func (fw *FrameWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	b := fw.buf
	fw.buf = b[:0]
	_, err := fw.w.Write(b)
	return err
}

// bufferFrame serializes one frame behind the frames already buffered;
// flush sends them together. A frame that does not validate leaves the
// buffer as it was.
func (fw *FrameWriter) bufferFrame(f *Frame) error {
	if err := checkFrame(f); err != nil {
		return err
	}
	if err := fw.makeRoom(wireLen(f)); err != nil {
		return err
	}
	start := len(fw.buf)
	b := appendHeader(fw.buf, f.Type, f.Channel, f.Flags, f.Seq, f.Timestamp, len(f.Payload))
	if f.Flags&FlagTrace != 0 {
		b = appendTraceExt(b, f.CaptureTS, f.SendTS, f.TraceID)
	}
	if f.Flags&FlagHops != 0 {
		b = appendHops(b, f.Hops, nil)
	}
	if f.Flags&FlagTier != 0 {
		b = appendTierExt(b, f.Tier, f.TierCount)
	}
	b = append(b, f.Payload...)
	fw.buf = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	return nil
}

// WriteFrame serializes and writes one frame (behind anything buffered),
// in a single Write.
func (fw *FrameWriter) WriteFrame(f *Frame) error {
	if err := fw.bufferFrame(f); err != nil {
		return err
	}
	return fw.flush()
}

// FrameReader decodes frames from an io.Reader. The returned Frame's
// Payload aliases an internal buffer that is overwritten by the next
// ReadFrame (zero-copy decoding); callers that retain payloads must copy
// — or adopt the buffer outright via AdoptPayload.
type FrameReader struct {
	r       io.Reader
	header  [headerLen]byte
	ext     [traceExtLen]byte
	hopBuf  [maxHopExtLen]byte
	hops    [obs.MaxTraceHops]obs.Hop
	tierBuf [tierExtLen]byte
	payload []byte
	trailer [trailerLen]byte
	// payloadCRC is the payload-only CRC32 of the last frame read — a free
	// byproduct of verification (the frame CRC is checked as
	// crcCombine(headerCRC, payloadCRC)), cached so a relay capturing the
	// frame for re-broadcast never re-hashes the payload.
	payloadCRC uint32
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, payload: make([]byte, 0, 4096)}
}

// ReadFrame reads and validates the next frame.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.header[:]); err != nil {
		return Frame{}, err
	}
	h := fr.header[:]
	if binary.BigEndian.Uint16(h) != Magic {
		return Frame{}, ErrBadMagic
	}
	if h[2] != Version {
		return Frame{}, fmt.Errorf("%w: version %d", ErrBadHeader, h[2])
	}
	f := Frame{
		Type:      FrameType(h[3]),
		Channel:   binary.BigEndian.Uint16(h[4:]),
		Flags:     binary.BigEndian.Uint16(h[6:]),
		Seq:       binary.BigEndian.Uint32(h[8:]),
		Timestamp: binary.BigEndian.Uint64(h[12:]),
	}
	n := binary.BigEndian.Uint32(h[20:])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if err := checkTraceFlags(f.Flags, 0); err != nil {
		return Frame{}, err
	}
	traced := f.Flags&FlagTrace != 0
	if traced {
		if _, err := io.ReadFull(fr.r, fr.ext[:]); err != nil {
			return Frame{}, fmt.Errorf("transport: truncated trace extension: %w", err)
		}
		f.CaptureTS = binary.BigEndian.Uint64(fr.ext[0:])
		f.SendTS = binary.BigEndian.Uint64(fr.ext[8:])
		f.TraceID = binary.BigEndian.Uint64(fr.ext[16:])
	}
	hopBytes := 0
	if f.Flags&FlagHops != 0 {
		if _, err := io.ReadFull(fr.r, fr.hopBuf[:1]); err != nil {
			return Frame{}, fmt.Errorf("transport: truncated hop extension: %w", err)
		}
		count := int(fr.hopBuf[0])
		if count > obs.MaxTraceHops {
			return Frame{}, fmt.Errorf("%w: %d hops exceeds %d", ErrBadHeader, count, obs.MaxTraceHops)
		}
		hopBytes = 1 + count*hopRecordLen
		if _, err := io.ReadFull(fr.r, fr.hopBuf[1:hopBytes]); err != nil {
			return Frame{}, fmt.Errorf("transport: truncated hop extension: %w", err)
		}
		for i := 0; i < count; i++ {
			rec := fr.hopBuf[1+i*hopRecordLen:]
			fr.hops[i] = obs.Hop{
				Kind:       obs.HopKind(rec[0]),
				Site:       rec[1],
				RecvMicros: binary.BigEndian.Uint64(rec[2:]),
				SendMicros: binary.BigEndian.Uint64(rec[10:]),
			}
		}
		f.Hops = fr.hops[:count]
	}
	tiered := f.Flags&FlagTier != 0
	if tiered {
		if _, err := io.ReadFull(fr.r, fr.tierBuf[:]); err != nil {
			return Frame{}, fmt.Errorf("transport: truncated tier extension: %w", err)
		}
		f.Tier, f.TierCount = fr.tierBuf[0], fr.tierBuf[1]
		if err := checkTierExt(f.Tier, f.TierCount); err != nil {
			return Frame{}, err
		}
	}
	payload, err := readPayload(fr.r, fr.payload, int(n))
	if err != nil {
		return Frame{}, fmt.Errorf("transport: truncated payload: %w", err)
	}
	fr.payload = payload
	if _, err := io.ReadFull(fr.r, fr.trailer[:]); err != nil {
		return Frame{}, fmt.Errorf("transport: truncated trailer: %w", err)
	}
	crc := crc32.ChecksumIEEE(h)
	if traced {
		crc = crc32.Update(crc, crc32.IEEETable, fr.ext[:])
	}
	if hopBytes > 0 {
		crc = crc32.Update(crc, crc32.IEEETable, fr.hopBuf[:hopBytes])
	}
	if tiered {
		crc = crc32.Update(crc, crc32.IEEETable, fr.tierBuf[:])
	}
	// The payload is hashed on its own and joined with the header CRC via
	// the GF(2) shift tables — the same total work as one incremental pass,
	// but the payload-only CRC becomes available to AdoptPayload, so a
	// relay forwarding this frame never hashes the payload again.
	shiftTablesOnce.Do(initShiftTables)
	fr.payloadCRC = crc32.ChecksumIEEE(fr.payload)
	crc = crcCombine(crc, fr.payloadCRC, len(fr.payload))
	if crc != binary.BigEndian.Uint32(fr.trailer[:]) {
		return Frame{}, ErrBadCRC
	}
	f.Payload = fr.payload
	return f, nil
}

// payloadChunk bounds what ReadFrame allocates for a payload before any
// of its bytes have arrived.
const payloadChunk = 64 << 10

// readPayload reads an n-byte payload, reusing buf when it is large
// enough. Otherwise n is only the peer's word, not yet backed by a single
// byte, so allocation follows the bytes that arrive: a payload of at most
// payloadChunk gets one exact-size buffer, and a larger one is read in
// chunks — payloadChunk first, then each chunk as large as everything
// read so far — joined once complete. Whatever the stream does, the
// reader allocates at most payloadChunk plus twice the bytes it received:
// a header declaring MaxPayload and then hanging up costs 64 KiB, not
// 16 MiB.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n && n <= payloadChunk {
		buf = make([]byte, n)
	}
	if cap(buf) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var chunks [][]byte
	for got := 0; got < n; {
		c := make([]byte, min(n-got, max(got, payloadChunk)))
		m, err := io.ReadFull(r, c)
		got += m
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
	}
	buf = make([]byte, 0, n)
	for _, c := range chunks {
		buf = append(buf, c...)
	}
	return buf, nil
}

// AdoptPayload transfers ownership of the last-read frame's payload
// buffer to the caller, along with its payload-only CRC32 (computed
// during read verification — no extra hash pass). Valid between a
// successful ReadFrame returning f and the next ReadFrame; f.Payload
// must still alias the reader's buffer. The reader allocates a fresh
// buffer for the next frame, so the adopted bytes are immutable from the
// caller's point of view. Returns ok=false when f's payload does not
// alias the reader's live buffer (already adopted, cloned, or empty with
// a non-empty reader buffer) — callers then fall back to copying.
func (fr *FrameReader) AdoptPayload(f Frame) (payload []byte, payloadCRC uint32, ok bool) {
	if len(f.Payload) != len(fr.payload) {
		return nil, 0, false
	}
	if len(f.Payload) > 0 && &f.Payload[0] != &fr.payload[0] {
		return nil, 0, false
	}
	payload, payloadCRC = fr.payload[:len(f.Payload):len(f.Payload)], fr.payloadCRC
	// Detach: the next ReadFrame grows a fresh buffer instead of scribbling
	// over the adopted one.
	fr.payload = nil
	return payload, payloadCRC, true
}

// Clone returns a frame with owned copies of the payload and hop list.
func (f Frame) Clone() Frame {
	c := f
	c.Payload = append([]byte(nil), f.Payload...)
	if f.Hops != nil {
		c.Hops = append([]obs.Hop(nil), f.Hops...)
	}
	return c
}
