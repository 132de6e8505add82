package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semholo/internal/obs"
)

// Hello is the handshake payload exchanged at session start. It carries
// the control-plane metadata that is static per session: the peer's
// name, its semantics mode, capture rate and room.
type Hello struct {
	// Peer is a human-readable participant name.
	Peer string `json:"peer"`
	// Mode names the semantics pipeline ("keypoint", "image", "text",
	// "traditional", "hybrid").
	Mode string `json:"mode"`
	// FPS is the sender's capture rate.
	FPS float64 `json:"fps,omitempty"`
	// Room names the conference room this session joins — the unit a
	// relay cluster consistent-hashes onto shards. Empty means the
	// single-room deployment of a standalone relay.
	Room string `json:"room,omitempty"`
}

// Session is a framed, multiplexed connection between two telepresence
// sites. Writes are serialized internally; one goroutine should own
// Recv.
type Session struct {
	conn net.Conn

	// ctx, when bound via DialContext/AcceptContext, cancels the session:
	// cancellation force-closes the connection (unblocking any Recv or
	// send in flight) and subsequent I/O errors surface the context's
	// cause so callers can distinguish a cancel from a network fault.
	ctx       context.Context
	stopWatch func() bool

	closeOnce sync.Once
	closeErr  error

	wmu   sync.Mutex
	fw    *FrameWriter
	seq   map[uint16]uint32
	fr    *FrameReader
	t0    time.Time
	stats sessionCounters

	// pongScratch is the reusable echo buffer for answering pings: the
	// ping payload is copied here (detaching it from the reader's
	// zero-copy buffer) instead of allocating per ping. Only touched by
	// Recv, which is single-goroutine by contract.
	pongScratch []byte
	// recvReturned is the session time at which Recv last returned a
	// frame to its caller (0 = never); Recv-owned, like pongScratch.
	recvReturned time.Duration

	pingMu  sync.Mutex
	pingSeq uint32
	// pings holds the outstanding pings: ping id lives in slot
	// id%maxOutstandingPings, so a new ping evicts the one issued
	// maxOutstandingPings before it and a peer that never answers costs a
	// fixed array, not a growing map.
	pings   [maxOutstandingPings]pingRecord
	lastRTT time.Duration
	// rttFloor is a ring of the latest unloaded RTT samples (pings that
	// left on their own); their minimum is the leg's unloaded RTT, and a
	// standing queue that inflates one sample does not move it.
	rttFloor  [rttFloorSamples]time.Duration
	rttFloorN int
	// capacity is the latest capacity sample in bits/s (0 = no evidence).
	capacity float64
}

// maxOutstandingPings caps the pings a session tracks at once.
const maxOutstandingPings = 64

// rttFloorSamples is the window of the unloaded-RTT minimum.
const rttFloorSamples = 8

// pingWireLen is a ping's on-the-wire size: header, 4-byte id, trailer.
const pingWireLen = headerLen + 4 + trailerLen

// pingRecord is one outstanding ping: its id, its send time on the
// session clock, and — for a ping that rode behind frames in the same
// write — the wire bytes of those frames.
type pingRecord struct {
	id     uint32
	loaded uint32
	sent   time.Duration
}

// sessionCounters is the live traffic accounting. All fields are
// atomics, so send and Recv paths never contend on a stats lock and
// Stats() can be sampled from any goroutine (e.g. a metrics scrape).
type sessionCounters struct {
	bytesSent      atomic.Int64
	bytesReceived  atomic.Int64
	framesSent     atomic.Int64
	framesReceived atomic.Int64
}

// SessionStats is a point-in-time snapshot of session traffic — a plain
// value with no lock inside, safe to copy, compare, and marshal.
type SessionStats struct {
	BytesSent      int64
	BytesReceived  int64
	FramesSent     int64
	FramesReceived int64
	// RTT is the most recent unloaded ping round-trip time (0 before
	// the first pong).
	RTT time.Duration
}

func newSession(conn net.Conn) *Session {
	return &Session{
		conn: conn,
		ctx:  context.Background(),
		fw:   NewFrameWriter(conn),
		fr:   NewFrameReader(conn),
		seq:  map[uint16]uint32{},
		t0:   time.Now(),
	}
}

// bind attaches a cancellation context. When ctx is canceled the
// connection is force-closed, which unblocks any pending read or write;
// wrapErr then reports the context's cause instead of the raw I/O error.
func (s *Session) bind(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	s.ctx = ctx
	s.stopWatch = context.AfterFunc(ctx, func() { _ = s.conn.Close() })
}

// wrapErr translates I/O errors caused by context cancellation into the
// context's cause, so callers see context.Canceled / DeadlineExceeded
// rather than "use of closed network connection".
func (s *Session) wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if s.ctx.Err() != nil {
		return fmt.Errorf("transport: session canceled: %w", context.Cause(s.ctx))
	}
	return err
}

// Dial performs the client side of the handshake over an established
// connection.
func Dial(conn net.Conn, hello Hello) (*Session, Hello, error) {
	return DialContext(context.Background(), conn, hello)
}

// DialContext is Dial with lifecycle: canceling ctx aborts an in-flight
// handshake and, afterwards, tears the session down (Recv and sends
// unblock and return the context's cause).
func DialContext(ctx context.Context, conn net.Conn, hello Hello) (*Session, Hello, error) {
	s := newSession(conn)
	s.bind(ctx)
	payload, err := json.Marshal(hello)
	if err != nil {
		return nil, Hello{}, fmt.Errorf("transport: marshal hello: %w", err)
	}
	if err := s.send(&Frame{Type: TypeHandshake, Channel: ChannelControl, Payload: payload}); err != nil {
		return nil, Hello{}, err
	}
	f, err := s.fr.ReadFrame()
	if err != nil {
		return nil, Hello{}, fmt.Errorf("transport: awaiting handshake ack: %w", s.wrapErr(err))
	}
	if f.Type != TypeHandshakeAck {
		return nil, Hello{}, fmt.Errorf("transport: expected handshake ack, got %v", f.Type)
	}
	var peer Hello
	if err := json.Unmarshal(f.Payload, &peer); err != nil {
		return nil, Hello{}, fmt.Errorf("transport: bad handshake ack: %w", err)
	}
	return s, peer, nil
}

// Accept performs the server side of the handshake.
func Accept(conn net.Conn, hello Hello) (*Session, Hello, error) {
	return AcceptContext(context.Background(), conn, hello)
}

// AcceptContext is Accept with lifecycle (see DialContext).
func AcceptContext(ctx context.Context, conn net.Conn, hello Hello) (*Session, Hello, error) {
	s := newSession(conn)
	s.bind(ctx)
	f, err := s.fr.ReadFrame()
	if err != nil {
		return nil, Hello{}, fmt.Errorf("transport: awaiting handshake: %w", s.wrapErr(err))
	}
	if f.Type != TypeHandshake {
		return nil, Hello{}, fmt.Errorf("transport: expected handshake, got %v", f.Type)
	}
	var peer Hello
	if err := json.Unmarshal(f.Payload, &peer); err != nil {
		return nil, Hello{}, fmt.Errorf("transport: bad handshake: %w", err)
	}
	payload, err := json.Marshal(hello)
	if err != nil {
		return nil, Hello{}, fmt.Errorf("transport: marshal hello: %w", err)
	}
	if err := s.send(&Frame{Type: TypeHandshakeAck, Channel: ChannelControl, Payload: payload}); err != nil {
		return nil, Hello{}, err
	}
	return s, peer, nil
}

// send stamps sequence and timestamp and writes the frame.
func (s *Session) send(f *Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.sendLocked(f)
}

// stampLocked assigns f its channel's next sequence number, the session
// clock and — on traced frames — the wall-clock send stamp; the caller
// holds wmu. sendTS is taken at the last possible moment before the
// write so the receiver's network span excludes sender-side queueing.
// Hop records still awaiting their send stamp (SendMicros == 0) get the
// same instant — the local site's hand-off time.
func (s *Session) stampLocked(f *Frame, timestamp, sendTS uint64) {
	f.Seq = s.nextSeq(f.Channel)
	f.Timestamp = timestamp
	if f.Flags&FlagTrace != 0 {
		f.SendTS = sendTS
		for i := range f.Hops {
			if f.Hops[i].SendMicros == 0 {
				f.Hops[i].SendMicros = sendTS
			}
		}
	}
}

// now reads the two clocks a write stamps: the session clock every frame
// carries, and the wall clock for trace extensions (skipped, zero, when
// flags carries no FlagTrace).
func (s *Session) now(flags uint16) (timestamp, sendTS uint64) {
	timestamp = uint64(time.Since(s.t0).Microseconds())
	if flags&FlagTrace != 0 {
		sendTS = obs.NowMicros()
	}
	return timestamp, sendTS
}

// sendLocked is send's body; the caller holds wmu.
func (s *Session) sendLocked(f *Frame) error {
	ts, sendTS := s.now(f.Flags)
	s.stampLocked(f, ts, sendTS)
	if err := s.fw.WriteFrame(f); err != nil {
		return s.wrapErr(err)
	}
	s.sent(wireLen(f), 1)
	return nil
}

// sent accounts bytes and wire frames written.
func (s *Session) sent(bytes, frames int) {
	s.stats.bytesSent.Add(int64(bytes))
	s.stats.framesSent.Add(int64(frames))
}

// SendBatch transmits the wire frames of one media frame — every channel
// of every rung a sender ships — as one unit: all of them are stamped
// and serialized under a single hold of the write lock and handed to the
// connection in one Write (one per 64 KiB for a batch larger than that),
// where sending them one by one costs a write, and on a real socket a
// syscall and a segment, per wire frame. The bytes on the wire are
// exactly those of sending each frame in a batch of its own: per-channel
// sequence numbers advance frame by frame, and nothing from another
// goroutine (a pong, a control frame) can land inside the batch. One
// session timestamp and — for traced frames — one SendTS are taken for
// the whole batch, immediately before it is serialized; hop records
// awaiting their send stamp get that SendTS. A batch of one frame is one write of that
// frame alone: SendBatch is the session's only media send, whatever the
// frame count.
//
// The batch is validated whole first: an invalid frame fails the call
// with nothing stamped and nothing written. frames is stamped in place
// (Seq, Timestamp, SendTS, hop send stamps) and not retained. Returns the
// wire bytes written.
func (s *Session) SendBatch(frames []Frame) (int, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var flags uint16
	total := 0
	for i := range frames {
		if err := checkFrame(&frames[i]); err != nil {
			return 0, err
		}
		flags |= frames[i].Flags
		total += wireLen(&frames[i])
	}
	s.fw.reserve(min(total, maxBatchBytes))
	ts, sendTS := s.now(flags)
	for i := range frames {
		s.stampLocked(&frames[i], ts, sendTS)
		if err := s.fw.bufferFrame(&frames[i]); err != nil {
			return 0, s.wrapErr(err)
		}
	}
	if err := s.fw.flush(); err != nil {
		return 0, s.wrapErr(err)
	}
	s.sent(total, len(frames))
	return total, nil
}

// wireLen is the on-the-wire size of a frame.
func wireLen(f *Frame) int {
	n := headerLen + len(f.Payload) + trailerLen
	if f.Flags&FlagTrace != 0 {
		n += traceExtLen
	}
	if f.Flags&FlagHops != 0 {
		n += 1 + len(f.Hops)*hopRecordLen
	}
	if f.Flags&FlagTier != 0 {
		n += tierExtLen
	}
	return n
}

// SendControl transmits a control payload.
func (s *Session) SendControl(payload []byte) error {
	return s.send(&Frame{Type: TypeControl, Channel: ChannelControl, Payload: payload})
}

// SharedSendOpts tunes one per-leg SharedFrame emission.
type SharedSendOpts struct {
	// Egress, when non-nil and the frame is hop-traced, is appended as
	// this leg's final hop record (SendMicros zero = stamp at write
	// time). Ignored on frames without the hop extension.
	Egress *obs.Hop
	// TierSwitch stamps FlagTierSwitch on this emission: the first frame
	// this leg sends after changing tier, telling the receiver to reset
	// decoder warm state before decoding. Only valid on tiered frames.
	TierSwitch bool
	// TrailingPing puts a ping behind the frames, in the same write,
	// sent as of the start of that write. The peer answers it once it
	// has read every byte ahead of it, so its round trip, less the
	// unloaded one and the time the peer's application held it, is the
	// time the link took to carry the frames: Capacity's sample.
	TrailingPing bool
}

// orFlags is the per-leg flag bits the options add to the header of the
// i-th frame of an emission: the switch marker rides on the first only.
func (o SharedSendOpts) orFlags(i int) uint16 {
	if o.TierSwitch && i == 0 {
		return FlagTierSwitch
	}
	return 0
}

// nextSeq hands out channel's next sequence number; the caller holds wmu.
func (s *Session) nextSeq(channel uint16) uint32 {
	seq := s.seq[channel]
	s.seq[channel]++
	return seq
}

// SendSharedBatch is SendBatch for pre-serialized broadcast frames: the
// wire frames of one media frame as a relay leg forwards it — one rung to
// a subscriber, the whole ladder down a trunk — stamped under one hold of
// the write lock and handed to the connection in one Write, byte for
// byte what one-frame calls would have emitted frame by frame
// (per-channel sequence numbers, one SendTS for the batch, cached payload
// CRCs spliced in, never re-hashed). o.Egress is appended to every hop-traced
// frame of the batch; o.TierSwitch marks the first frame only — the
// boundary a receiver resets its decoder on; o.TrailingPing closes the
// write with a ping.
//
// A batch of one frame without a trailing ping is written by reference,
// scatter-gather writes included, on purpose: see
// WriteSharedFrameLeg. With one, the frame and the ping must share a
// write, or the ping would time the write boundaries too. The batch is
// validated whole before anything is written. Returns the wire bytes
// written, the ping's included.
func (s *Session) SendSharedBatch(frames []*SharedFrame, o SharedSendOpts) (int, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if len(frames) == 1 && !o.TrailingPing {
		// By reference: header, shared payload, trailer.
		sf := frames[0]
		ts, sendTS := s.now(sf.Flags)
		if err := s.fw.WriteSharedFrameLeg(sf, s.nextSeq(sf.Channel), ts, sendTS, o.Egress, o.orFlags(0)); err != nil {
			return 0, s.wrapErr(err)
		}
		n := sf.legWireLen(o.Egress)
		s.sent(n, 1)
		return n, nil
	}
	var flags uint16
	total := 0
	for i, sf := range frames {
		if err := checkSharedLeg(sf, o.orFlags(i)); err != nil {
			return 0, err
		}
		flags |= sf.Flags
		total += sf.legWireLen(o.Egress)
	}
	written, wireFrames := total, len(frames)
	if o.TrailingPing {
		written, wireFrames = total+pingWireLen, wireFrames+1
	}
	s.fw.reserve(min(written, maxBatchBytes))
	ts, sendTS := s.now(flags)
	for i, sf := range frames {
		if err := s.fw.bufferSharedFrameLeg(sf, s.nextSeq(sf.Channel), ts, sendTS, o.Egress, o.orFlags(i)); err != nil {
			return 0, s.wrapErr(err)
		}
	}
	if o.TrailingPing {
		var id [4]byte
		s.registerPing(&id, time.Duration(ts)*time.Microsecond, total)
		ping := Frame{Type: TypePing, Channel: ChannelControl, Seq: s.nextSeq(ChannelControl), Timestamp: ts, Payload: id[:]}
		if err := s.fw.bufferFrame(&ping); err != nil {
			return 0, s.wrapErr(err)
		}
	}
	if err := s.fw.flush(); err != nil {
		return 0, s.wrapErr(err)
	}
	s.sent(written, wireFrames)
	return written, nil
}

// CaptureShared captures a frame just returned by Recv as a
// SharedFrame, adopting the session reader's payload buffer and the
// payload CRC computed during read verification when possible — no
// payload copy and no CRC pass, the trunk-ingress economics. It must be
// called between the Recv that returned f and the next Recv, on the
// Recv-owning goroutine. When the buffer cannot be adopted (the frame
// was cloned, or already captured) it falls back to SharedFromFrame's
// copying path, so the result is always a valid standalone SharedFrame.
func (s *Session) CaptureShared(f Frame) (*SharedFrame, error) {
	if payload, crc, ok := s.fr.AdoptPayload(f); ok {
		return SharedFromWire(f, payload, crc)
	}
	return SharedFromFrame(f)
}

// Recv reads the next frame, transparently answering pings and
// surfacing everything else. The returned payload is only valid until
// the next Recv (zero-copy); Clone to retain. Returns a TypeClose frame
// when the peer closed gracefully.
func (s *Session) Recv() (Frame, error) {
	called := time.Since(s.t0)
	for {
		f, err := s.fr.ReadFrame()
		if err != nil {
			return Frame{}, s.wrapErr(err)
		}
		s.stats.bytesReceived.Add(int64(wireLen(&f)))
		s.stats.framesReceived.Add(1)
		switch f.Type {
		case TypePing:
			// Echo the ping ID back through the session-owned scratch
			// buffer — no per-ping allocation — followed by how long the
			// caller held the session, in µs, between the previous frame
			// Recv returned and this call: a ping that arrived behind that
			// frame waited that long for its answer, wherever the link was.
			var held time.Duration
			if s.recvReturned > 0 {
				held = called - s.recvReturned
			}
			s.pongScratch = append(s.pongScratch[:0], f.Payload...)
			s.pongScratch = binary.BigEndian.AppendUint32(s.pongScratch, uint32(min(held.Microseconds(), math.MaxUint32)))
			if err := s.send(&Frame{Type: TypePong, Channel: ChannelControl, Payload: s.pongScratch}); err != nil {
				return Frame{}, err
			}
		case TypePong:
			s.handlePong(f)
		default:
			s.recvReturned = time.Since(s.t0)
			return f, nil
		}
	}
}

// Ping sends a ping on its own; the RTT becomes observable via RTT after
// the pong arrives (during a Recv call), and it is an unloaded sample of
// the leg's round trip for Capacity.
func (s *Session) Ping() error {
	var id [4]byte
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.registerPing(&id, time.Since(s.t0), 0)
	return s.sendLocked(&Frame{Type: TypePing, Channel: ChannelControl, Payload: id[:]})
}

// registerPing issues the next ping ID into id and records the ping as
// sent at session time sent, behind loaded wire bytes of its own write.
func (s *Session) registerPing(id *[4]byte, sent time.Duration, loaded int) {
	s.pingMu.Lock()
	defer s.pingMu.Unlock()
	// Monotonic IDs: reusing one would cross-wire RTT samples when several
	// pings are in flight. Zero marks an empty slot and is never issued.
	s.pingSeq++
	if s.pingSeq == 0 {
		s.pingSeq++
	}
	s.pings[s.pingSeq%maxOutstandingPings] = pingRecord{id: s.pingSeq, loaded: uint32(loaded), sent: sent}
	binary.BigEndian.PutUint32(id[:], s.pingSeq)
}

// handlePong matches a pong to its outstanding ping. An unloaded ping
// yields an RTT sample; a ping that rode behind frames yields a capacity
// sample: those frames' bits over the extra time their ping took. The
// pong carries the ping's ID and, after it, how long the peer's caller
// held its session before reading the ping (absent from a bare 4-byte
// echo, which counts as zero).
func (s *Session) handlePong(f Frame) {
	if len(f.Payload) != 4 && len(f.Payload) != 8 {
		return
	}
	id := binary.BigEndian.Uint32(f.Payload)
	var held time.Duration
	if len(f.Payload) == 8 {
		held = time.Duration(binary.BigEndian.Uint32(f.Payload[4:])) * time.Microsecond
	}
	now := time.Since(s.t0)
	s.pingMu.Lock()
	defer s.pingMu.Unlock()
	p := s.pings[id%maxOutstandingPings]
	if id == 0 || p.id != id {
		return // never sent, already answered, or evicted
	}
	s.pings[id%maxOutstandingPings] = pingRecord{}
	rtt := now - p.sent
	if p.loaded == 0 {
		// An unloaded ping usually reaches an idle peer, and the hold it
		// reports is then the peer's work on the frame before, not time
		// this ping waited: it is not subtracted, and the window minimum
		// discards the samples a busy peer did hold.
		s.lastRTT = rtt
		s.rttFloor[s.rttFloorN%rttFloorSamples] = rtt
		s.rttFloorN++
		return
	}
	s.capacity = 0
	if s.rttFloorN == 0 {
		return
	}
	floor := s.rttFloor[0]
	for _, r := range s.rttFloor[1:min(s.rttFloorN, rttFloorSamples)] {
		floor = min(floor, r)
	}
	// A trailing ping arrives right behind the write's last frame, so the
	// peer held it for all of its reported hold: the application's time
	// on that frame, which is not the link's. A difference at or below
	// zero is no evidence: the ping read nothing about the link.
	if busy := rtt - held - floor; busy > 0 {
		s.capacity = float64(p.loaded) * 8 / busy.Seconds()
	}
}

// RTT returns the most recent unloaded round-trip time (0 before the
// first pong).
func (s *Session) RTT() time.Duration {
	s.pingMu.Lock()
	defer s.pingMu.Unlock()
	return s.lastRTT
}

// Capacity returns the latest capacity sample in bits/s: the wire bytes
// of a write that carried a trailing ping (SharedSendOpts.TrailingPing),
// over that ping's round trip minus the time the peer's application
// held it and minus the minimum of the recent unloaded round trips
// (Ping). On any byte stream the peer reads the ping only behind those
// bytes, so what remains is the time the link took to carry them. Zero means no evidence: no such ping answered yet, no unloaded
// sample to subtract, or a difference that was not positive.
func (s *Session) Capacity() float64 {
	s.pingMu.Lock()
	defer s.pingMu.Unlock()
	return s.capacity
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		BytesSent:      s.stats.bytesSent.Load(),
		BytesReceived:  s.stats.bytesReceived.Load(),
		FramesSent:     s.stats.framesSent.Load(),
		FramesReceived: s.stats.framesReceived.Load(),
		RTT:            s.RTT(),
	}
}

// Instrument registers the session's traffic counters and RTT gauge
// into reg as pull-backed series labeled with site (e.g. "sender",
// "receiver"), so a /metrics scrape reports live session state with
// zero added cost on the send/receive hot paths.
func (s *Session) Instrument(reg *obs.Registry, site string) {
	bytes := reg.Counter("semholo_session_bytes_total",
		"Session wire bytes by direction (framing included).", "site", "direction")
	bytes.Func(func() float64 { return float64(s.stats.bytesSent.Load()) }, site, "sent")
	bytes.Func(func() float64 { return float64(s.stats.bytesReceived.Load()) }, site, "received")
	frames := reg.Counter("semholo_session_frames_total",
		"Session wire frames by direction.", "site", "direction")
	frames.Func(func() float64 { return float64(s.stats.framesSent.Load()) }, site, "sent")
	frames.Func(func() float64 { return float64(s.stats.framesReceived.Load()) }, site, "received")
	reg.Gauge("semholo_session_rtt_seconds",
		"Most recent ping round-trip time (0 before the first pong).", "site").
		Func(func() float64 { return s.RTT().Seconds() }, site)
}

// Close sends a close frame and closes the connection. It is idempotent
// and safe to call concurrently with Recv and sends (which then return
// errors), so lifecycle teardown can always call it unconditionally.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		// Best-effort graceful close frame: teardown must never block on a
		// stalled write path. If another writer holds the lock, or the
		// peer stopped draining the link, skip the courtesy frame —
		// closing the connection below is the authoritative signal.
		if s.wmu.TryLock() {
			_ = s.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			_ = s.sendLocked(&Frame{Type: TypeClose, Channel: ChannelControl})
			s.wmu.Unlock()
		}
		s.closeErr = s.conn.Close()
		if s.stopWatch != nil {
			s.stopWatch()
		}
	})
	return s.closeErr
}
