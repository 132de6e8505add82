package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semholo/internal/obs"
	"semholo/internal/queue"
	"semholo/internal/transport"
)

// Relay is the multi-party edge component the paper's two-site Figure 1
// elides: each participant holds one session to the relay, which
// forwards every semantic frame to all other participants (an SFU —
// semantic forwarding unit, not a mixer: payloads are opaque, so the
// relay is mode-agnostic and adds no reconstruction latency). Control
// frames (gaze, bandwidth) are forwarded too, so foveated encoding and
// rate adaptation work across the relay.
//
// Frames fan out with the originating participant's name prepended on a
// dedicated control line during attach, letting receivers demultiplex
// participants by channel block (each participant's channels are offset
// by ParticipantChannelStride).
//
// Fan-out is serialize-once and slow-consumer isolated. An ingress pump
// captures each frame as one immutable transport.SharedFrame (one
// payload copy + one CRC pass total, regardless of subscriber count),
// then enqueues it onto every other participant's bounded
// latest-frame-wins egress queue — an O(peers) loop of non-blocking
// queue puts against a copy-on-write peer snapshot, no locks and no
// per-peer serialization on the ingress path. A dedicated egress
// goroutine per subscriber drains its queue and writes frames with that
// subscriber's own per-channel sequence numbers, so a stalled or slow
// peer fills and sheds only its own queue (drops counted per peer)
// while everyone else keeps receiving at full rate.
//
// Egress is newest-wins at dequeue: a self-contained media frame (every
// wire frame a keyframe, the media frame complete in one queue entry)
// is worth nothing once a later one from the same publisher is already
// waiting, so the egress loop sheds it and serves the newest instead of
// working through a standing backlog. A leg slower than the offered
// rate therefore delivers frames at most one dequeue old, not a full
// queue old. Control frames, delta-coded frames and the pieces of
// multi-channel frames are never skipped or reordered; the queue bound
// and Put's evict-oldest remain the memory limit for that residue and
// for a peer that stopped draining altogether.
//
// Lifecycle: every Attach starts one pump and one egress goroutine. A
// pump exits when its session errors, its peer closes, the peer is
// Detached, or the relay's context is canceled; its exit closes the
// egress queue, which ends the egress goroutine after draining. Close
// detaches every peer and joins every goroutine before returning, so a
// relay can never leak. One participant failing detaches only that
// participant — an SFU must not tear down the conference for one
// dropped caller — but the first abnormal pump error is recorded and
// reported by Close, errgroup-style.
type Relay struct {
	ctx       context.Context
	cancel    context.CancelFunc
	stopWatch func() bool

	queueDepth int
	site       byte
	room       string
	// tierLevels enables per-subscriber semantic tiering when non-nil:
	// tiered ingress frames are assembled into SharedFrameSets and each
	// egress leg runs its own TierSelector over these levels.
	tierLevels  []transport.RateLevel
	newSelector func(levels []transport.RateLevel) *transport.TierSelector

	mu     sync.Mutex
	peers  map[string]*relayPeer
	closed bool
	// snap is the copy-on-write fan-out set: an immutable slice swapped
	// on attach/detach so broadcast never takes r.mu.
	snap atomic.Pointer[[]*relayPeer]

	ingress    atomic.Uint64
	unroutable atomic.Uint64

	m atomic.Pointer[relayMetrics]

	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
}

// RelayOptions tunes a relay.
type RelayOptions struct {
	// QueueDepth bounds each subscriber's egress queue (latest-frame-wins;
	// default 16). It does not set media latency: self-contained media
	// frames are superseded at dequeue however deep the queue is. Depth
	// bounds what cannot be superseded — control frames, delta-coded
	// streams, multi-channel pieces — and the memory a stalled peer pins;
	// a deeper queue lets that residue ride out a longer stall before
	// Put starts evicting it.
	QueueDepth int
	// Registry, when non-nil, receives the relay's fan-out metrics
	// (equivalent to calling Instrument).
	Registry *obs.Registry
	// Site is the byte identifying this relay instance in hop records
	// (relay shard ID in a cascaded deployment; zero is fine for a single
	// relay).
	Site byte
	// Room names the room this relay fans out, used as the metric label
	// distinguishing rooms that share one registry (a shard hosts many).
	// Empty is exported as "default".
	Room string
	// TierLevels, when non-nil, turns on per-subscriber semantic
	// tiering (one entry per ladder rung, cheapest first): tiered
	// ingress frames are assembled into one SharedFrameSet per media
	// frame, stamped with its stream's demand per rung as measured here, and
	// every egress leg runs its own TierSelector over these levels —
	// picking, per subscriber, which rung that leg gets, from the leg's
	// own queue depth, drop rate, RTT, delivered throughput and capacity
	// samples. When nil, tiered frames are forwarded verbatim (the relay
	// is tier-transparent, every subscriber sees all rungs).
	TierLevels []transport.RateLevel
	// NewTierSelector, when non-nil, builds each attaching leg's
	// selector (tuned dwell/backoff); nil uses
	// transport.NewTierSelector defaults.
	NewTierSelector func(levels []transport.RateLevel) *transport.TierSelector
}

// DefaultRelayQueueDepth is the per-subscriber egress queue bound used
// when RelayOptions.QueueDepth is zero.
const DefaultRelayQueueDepth = 16

// ParticipantChannelStride separates participants' channel spaces when
// relayed: participant i's channel c arrives as c + i*stride. A
// participant's own channels are therefore below the stride; the relay
// drops (and counts as Unroutable) any semantic frame at or above it.
const ParticipantChannelStride uint16 = 1000

// participantBlocks is the number of channel blocks whose every channel
// fits in a uint16: block i spans i*stride … i*stride + stride-1. A peer
// attached past them still receives, but its semantic frames are
// unroutable.
const participantBlocks = (math.MaxUint16 + 1) / int(ParticipantChannelStride)

// egressItem is one broadcast unit in flight to one subscriber, stamped
// at ingress so the egress goroutine can observe fan-out latency.
// Exactly one of sf (a plain frame) or set (one media frame at every
// ladder rung) is non-nil; from is the peer it entered the relay
// through, the upstream a tier-switch keyframe request goes to.
type egressItem struct {
	sf   *transport.SharedFrame
	set  *transport.SharedFrameSet
	from *relayPeer
	at   time.Time
	// selfContained marks a whole media frame a receiver can cold-start
	// from, decided once at ingress: a set whose every rung is
	// all-keyframe, or a plain semantic frame that is both a keyframe and
	// its media frame's closing wire frame. Only such an item can be
	// superseded by a later one.
	selfContained bool
}

// leadChannel is the channel of the item's first wire frame. Channels
// are re-homed into the publishing participant's block at the home
// relay, so together with from it identifies the stream an item belongs
// to even on a trunk-ingress peer carrying many publishers.
func (it egressItem) leadChannel() uint16 {
	if it.sf != nil {
		return it.sf.Channel
	}
	return it.set.Tier(0)[0].Channel
}

// supersededBy reports whether next, queued behind it, makes it not
// worth sending: both are self-contained media frames of the same
// stream (and, for plain tier-stamped frames forwarded verbatim, the
// same rung — a tier-transparent relay must not collapse a ladder).
func (it egressItem) supersededBy(next egressItem) bool {
	if !it.selfContained || !next.selfContained || it.from != next.from ||
		(it.set == nil) != (next.set == nil) || it.leadChannel() != next.leadChannel() {
		return false
	}
	return it.set != nil || it.sf.Tier == next.sf.Tier
}

// traceID attributes a shed item in flight-recorder events.
func (it egressItem) traceID() uint64 {
	if it.sf != nil {
		return it.sf.TraceID
	}
	if it.set != nil {
		return it.set.TraceID()
	}
	return 0
}

type relayPeer struct {
	name string
	// site is the flight-recorder label of this peer's events
	// ("relay:<name>"), built once at attach: concatenating it per event
	// would allocate on every frame of every leg.
	site string
	idx  int
	sess *transport.Session
	// trunkEgress marks a relay-to-relay downlink: the egress loop
	// forwards every rung of a tiered set in ladder order (no
	// TierSelector — the downstream shard's own legs pick rungs).
	trunkEgress bool
	// trunkIngress marks a relay-to-relay uplink: the pump skips channel
	// re-homing (the home shard already re-homed at origin) and adopts
	// the received payload buffer + CRC instead of re-copying.
	trunkIngress bool
	// ladder is a trunk-egress leg's batch scratch — every rung's wire
	// frames of one media frame, in ladder order — reused across media
	// frames and touched only by the leg's egress goroutine.
	ladder []*transport.SharedFrame
	// out is the subscriber's bounded latest-frame-wins egress queue: the
	// broadcast loop's non-blocking handoff to this peer's egress
	// goroutine.
	out  *queue.Queue[egressItem]
	sent atomic.Uint64
	// sel picks this leg's tier from its own measured signals; est
	// measures the leg's delivered throughput. Both nil when the relay
	// is not tiering.
	sel *transport.TierSelector
	est *transport.BandwidthEstimator
	// tier is the rung this leg currently serves (-1 before the first
	// tiered frame); tierSwitches counts applied mid-stream switches.
	tier         atomic.Int64
	tierSwitches atomic.Uint64
	// done closes when the peer's pump goroutine has fully exited;
	// egressDone when its egress goroutine has. Detach and Close join on
	// both.
	done       chan struct{}
	egressDone chan struct{}
}

// NewRelayOpts builds an empty relay whose lifetime is bounded by ctx:
// cancellation detaches every participant and stops every pump, as Close
// does. The zero RelayOptions give a plain, untiered relay.
func NewRelayOpts(ctx context.Context, opt RelayOptions) *Relay {
	ctx, cancel := context.WithCancel(ctx)
	r := &Relay{
		ctx: ctx, cancel: cancel, peers: map[string]*relayPeer{},
		queueDepth: opt.QueueDepth, site: opt.Site, room: opt.Room,
		tierLevels: opt.TierLevels, newSelector: opt.NewTierSelector,
	}
	if r.room == "" {
		r.room = "default"
	}
	if r.queueDepth <= 0 {
		r.queueDepth = DefaultRelayQueueDepth
	}
	r.snap.Store(&[]*relayPeer{})
	// On cancellation — ours via Close, or the parent's — force every
	// pump out of its blocking Recv by closing the peer sessions.
	r.stopWatch = context.AfterFunc(ctx, r.closeAllSessions)
	if opt.Registry != nil {
		r.Instrument(opt.Registry)
	}
	return r
}

// relayMetrics holds the push-observed series; per-peer queue series are
// pull-backed Funcs registered at attach time.
type relayMetrics struct {
	reg              *obs.Registry
	room             string
	broadcastSeconds *obs.Histogram
	egressSeconds    *obs.Histogram
	queueDepth       *obs.GaugeVec
	dropped          *obs.CounterVec
	delivered        *obs.CounterVec
	tier             *obs.GaugeVec
	tierSwitches     *obs.CounterVec
}

// Instrument registers the relay's fan-out metrics: broadcast (ingress
// enqueue-to-all) and ingress→egress latency histograms, ingress and
// unroutable frame counters, a live peer-count gauge, and per-peer
// queue depth / dropped / delivered series (labeled by room and
// participant, registered as peers attach; re-attaching a name resets
// its series). Every series carries the relay's room label, so a shard
// hosting many rooms on one registry stays scrapeable per room — the
// cluster's per-room/per-shard capacity accounting.
func (r *Relay) Instrument(reg *obs.Registry) {
	m := &relayMetrics{
		reg:  reg,
		room: r.room,
		broadcastSeconds: reg.Histogram("semholo_relay_fanout_broadcast_seconds",
			"Time one ingress frame spends enqueueing onto every subscriber egress queue.",
			nil, "room").With(r.room),
		egressSeconds: reg.Histogram("semholo_relay_fanout_egress_seconds",
			"Per-subscriber latency from relay ingress to the frame handed to the subscriber's wire.",
			nil, "room").With(r.room),
		queueDepth: reg.Gauge("semholo_relay_egress_queue_depth",
			"Live egress queue depth per subscriber.", "room", "peer"),
		dropped: reg.Counter("semholo_relay_egress_dropped_frames_total",
			"Frames shed by a subscriber's latest-frame-wins egress queue.", "room", "peer"),
		delivered: reg.Counter("semholo_relay_egress_delivered_frames_total",
			"Frames written to a subscriber's session.", "room", "peer"),
		tier: reg.Gauge("semholo_relay_egress_tier",
			"Ladder rung each subscriber leg currently serves (-1 before the first tiered frame).", "room", "peer"),
		tierSwitches: reg.Counter("semholo_relay_egress_tier_switches_total",
			"Mid-stream tier switches applied per subscriber leg.", "room", "peer"),
	}
	reg.Counter("semholo_relay_ingress_frames_total",
		"Routable frames accepted from participants for fan-out.", "room").
		Func(func() float64 { return float64(r.ingress.Load()) }, r.room)
	reg.Counter("semholo_relay_unroutable_frames_total",
		"Frames the relay does not forward: unrouted types, or a semantic frame outside its sender's channel block (protocol drift detector).", "room").
		Func(func() float64 { return float64(r.unroutable.Load()) }, r.room)
	reg.Gauge("semholo_relay_peers",
		"Participants currently attached.", "room").
		Func(func() float64 { return float64(len(*r.snap.Load())) }, r.room)
	r.m.Store(m)
	// Cover peers attached before instrumentation.
	r.mu.Lock()
	for _, p := range r.peers {
		m.registerPeer(p)
	}
	r.mu.Unlock()
}

func (m *relayMetrics) registerPeer(p *relayPeer) {
	m.queueDepth.Func(func() float64 { return float64(p.out.Len()) }, m.room, p.name)
	m.dropped.Func(func() float64 { return float64(p.out.Dropped()) }, m.room, p.name)
	m.delivered.Func(func() float64 { return float64(p.sent.Load()) }, m.room, p.name)
	m.tier.Func(func() float64 { return float64(p.tier.Load()) }, m.room, p.name)
	m.tierSwitches.Func(func() float64 { return float64(p.tierSwitches.Load()) }, m.room, p.name)
}

// AttachOptions marks a peer's role in a cascaded deployment. The zero
// value is an ordinary participant.
type AttachOptions struct {
	// TrunkEgress attaches a relay-to-relay downlink: instead of running
	// a TierSelector, this leg forwards every rung of every tiered media
	// frame in ladder order, so the downstream shard receives the full
	// ladder and its own egress legs tier independently. Non-tiered
	// frames forward verbatim, exactly as a subscriber leg would — same
	// serialize-once write path, same 2 allocs/frame.
	TrunkEgress bool
	// TrunkIngress attaches a relay-to-relay uplink: frames arriving on
	// it were already re-homed into their originating participant's
	// channel block by the home shard, so the pump applies no channel
	// offset, and the received payload buffer and its CRC are adopted
	// into the re-shared frame instead of being copied and re-hashed.
	TrunkIngress bool
}

// Attach registers a session under the participant's name and starts
// forwarding its frames to everyone else. It returns the participant's
// channel-block index: the lowest one no attached peer holds, so a
// detached peer's block is handed out again. Forwarding stops when the
// session errors or closes, on Detach, or when the relay shuts down;
// the peer is then detached and its pump and egress goroutines joined.
func (r *Relay) Attach(name string, sess *transport.Session) (int, error) {
	return r.AttachPeer(name, sess, AttachOptions{})
}

// AttachPeer is Attach with an explicit role — ordinary participant or
// trunk end of a relay-to-relay cascade link.
func (r *Relay) AttachPeer(name string, sess *transport.Session, opt AttachOptions) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, fmt.Errorf("core: relay is closed")
	}
	if _, dup := r.peers[name]; dup {
		r.mu.Unlock()
		return 0, fmt.Errorf("core: relay already has participant %q", name)
	}
	p := &relayPeer{
		name: name, site: "relay:" + name, idx: r.freeBlockLocked(), sess: sess,
		trunkEgress: opt.TrunkEgress, trunkIngress: opt.TrunkIngress,
		out:  queue.NewQueue[egressItem](r.queueDepth, false),
		done: make(chan struct{}), egressDone: make(chan struct{}),
	}
	p.tier.Store(-1)
	if r.tierLevels != nil && !p.trunkEgress {
		if r.newSelector != nil {
			p.sel = r.newSelector(r.tierLevels)
		} else {
			p.sel = transport.NewTierSelector(r.tierLevels)
		}
		p.est = &transport.BandwidthEstimator{}
	}
	// Shed frames — evicted by a full Put or superseded at dequeue —
	// become flight-recorder events carrying the dropped frame's trace
	// ID, so a missing frame in a waterfall is attributable to the exact
	// queue that shed it.
	p.out.OnDrop = func(ev egressItem) {
		obs.Flight.Record(obs.EvQueueDrop, p.site, ev.traceID(), int64(r.queueDepth), 0)
	}
	r.peers[name] = p
	r.storeSnapshotLocked()
	if m := r.m.Load(); m != nil {
		m.registerPeer(p)
	}
	r.wg.Add(2)
	r.mu.Unlock()

	go r.pump(p)
	go r.egress(p)
	return p.idx, nil
}

// freeBlockLocked returns the lowest channel-block index no attached
// peer holds; callers hold r.mu.
func (r *Relay) freeBlockLocked() int {
	held := make([]bool, len(r.peers))
	for _, p := range r.peers {
		if p.idx < len(held) {
			held[p.idx] = true
		}
	}
	for i, h := range held {
		if !h {
			return i
		}
	}
	return len(held)
}

// storeSnapshotLocked rebuilds the immutable fan-out slice; callers hold
// r.mu.
func (r *Relay) storeSnapshotLocked() {
	snap := make([]*relayPeer, 0, len(r.peers))
	for _, p := range r.peers {
		snap = append(snap, p)
	}
	r.snap.Store(&snap)
}

// Peers returns the current participant names.
func (r *Relay) Peers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.peers))
	for n := range r.peers {
		names = append(names, n)
	}
	return names
}

// RelayPeerStats is one subscriber's delivery counters.
type RelayPeerStats struct {
	Name string
	// Queued is the live egress queue depth.
	Queued int
	// Delivered counts frames written to the subscriber's session.
	Delivered uint64
	// Dropped counts frames shed by the subscriber's latest-frame-wins
	// queue — superseded at dequeue by a newer self-contained frame, or
	// evicted by a Put on a full queue (a slow or stalled consumer sheds
	// its own frames; nobody else's are delayed).
	Dropped uint64
	// Tier is the ladder rung this leg currently serves (-1 before the
	// first tiered frame or when the relay is not tiering).
	Tier int
	// TierSwitches counts mid-stream tier switches applied on this leg.
	TierSwitches uint64
	// CapacityBps is the leg's latest capacity sample in bits/s
	// (transport.Session.Capacity; 0 = none yet).
	CapacityBps float64
}

// PeerStats snapshots per-subscriber delivery counters, sorted by name.
func (r *Relay) PeerStats() []RelayPeerStats {
	peers := *r.snap.Load()
	stats := make([]RelayPeerStats, 0, len(peers))
	for _, p := range peers {
		stats = append(stats, RelayPeerStats{
			Name:         p.name,
			Queued:       p.out.Len(),
			Delivered:    p.sent.Load(),
			Dropped:      p.out.Dropped(),
			Tier:         int(p.tier.Load()),
			TierSwitches: p.tierSwitches.Load(),
			CapacityBps:  p.sess.Capacity(),
		})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

// IngressFrames counts routable frames accepted for fan-out.
func (r *Relay) IngressFrames() uint64 { return r.ingress.Load() }

// Unroutable counts frames the relay does not forward: frames of types
// it does not route, and the semantic frames re-homing would land
// outside their sender's block — a channel at or above
// ParticipantChannelStride, or any channel of a peer attached past the
// blocks that fit in a uint16. Only trunk-ingress legs, whose frames
// the home shard already re-homed, are exempt.
func (r *Relay) Unroutable() uint64 { return r.unroutable.Load() }

// pump is the per-participant ingress loop: it captures each received
// frame as a serialize-once SharedFrame and fans it out to every
// subscriber queue.
func (r *Relay) pump(p *relayPeer) {
	defer r.wg.Done()
	defer close(p.done)
	defer r.detach(p)
	base := uint16(p.idx) * ParticipantChannelStride
	if p.trunkIngress {
		// Trunk frames were re-homed by the home shard; re-offsetting here
		// would collide participant blocks across shards.
		base = 0
	}
	// curSet accumulates one tiered media frame (all ladder rungs) when
	// the relay is tiering. The sender's single transmit goroutine ships
	// rungs in order, so completion is a per-tier EndOfFrame bitmask.
	var curSet *transport.SharedFrameSet
	// demand measures each tiered stream this peer carries — one for a
	// participant, one per publisher on a trunk — keyed by lead channel.
	var demand map[uint16]*demandMeter
	for {
		f, err := p.sess.Recv()
		recvUS := obs.NowMicros()
		if err != nil {
			if !benignSessionError(err) {
				r.errOnce.Do(func() {
					r.err = fmt.Errorf("core: relay participant %q: %w", p.name, err)
				})
			}
			return
		}
		var sf *transport.SharedFrame
		switch f.Type {
		case transport.TypeClose:
			return
		case transport.TypeSemantic:
			if !p.trunkIngress && (f.Channel >= ParticipantChannelStride || p.idx >= participantBlocks) {
				r.unroutable.Add(1)
				continue
			}
			// Re-home the channel into the sender's block. CaptureShared
			// adopts the reader's payload buffer and the CRC it already
			// verified, so ingress does zero payload copies and zero extra
			// CRC passes — on a trunk leg this is what makes a cascaded
			// shard's re-share free; on a participant leg it simply moves
			// the per-frame allocation into the reader's next fill.
			sf, err = p.sess.CaptureShared(f)
			if err != nil {
				continue // unreachable: a decoded frame is within MaxPayload
			}
			sf.Channel += base
			if f.HopTraced() {
				// Stamp the relay-ingress hop once; every subscriber's copy
				// shares it. Send time is stamped just below, when the frame
				// enters the fan-out queues. A full carried path drops the
				// hop instead of failing the frame; the flight event keeps
				// the truncated waterfall explainable.
				if !sf.AppendHop(obs.Hop{
					Kind: obs.HopRelayIngress, Site: r.site,
					RecvMicros: recvUS, SendMicros: obs.NowMicros(),
				}) {
					obs.Flight.Record(obs.EvHopDropped, p.site,
						f.TraceID, int64(obs.HopRelayIngress), int64(len(sf.Hops())))
				}
				obs.Flight.Record(obs.EvRelayIngress, p.site, f.TraceID, int64(len(f.Payload)), 0)
			}
			if r.tierLevels != nil && sf.Flags&transport.FlagTier != 0 {
				// Tiered ingress: assemble the rungs into one set and
				// broadcast the whole media frame at once — each egress
				// leg picks its own rung at dequeue time.
				if curSet == nil || curSet.TierCount() != int(sf.TierCount) {
					if curSet, err = transport.NewSharedFrameSet(int(sf.TierCount)); err != nil {
						continue // unreachable: the reader validated 1..MaxTiers
					}
				}
				if err := curSet.Add(sf); err != nil {
					curSet = nil // mid-set ladder change; resync on the next media frame
					continue
				}
				if !curSet.Complete() {
					continue
				}
				lead := curSet.Tier(0)[0].Channel
				m := demand[lead]
				if m == nil {
					if demand == nil {
						demand = map[uint16]*demandMeter{}
					}
					m = &demandMeter{}
					demand[lead] = m
				}
				m.stamp(curSet, time.Now())
				r.ingress.Add(1)
				r.broadcast(p, egressItem{set: curSet, selfContained: setSelfContained(curSet)})
				curSet = nil
				continue
			}
		case transport.TypeControl:
			// Wire-compatible with the legacy SendControl forwarding path:
			// control frames land on the control channel with no flags.
			sf, err = transport.NewSharedFrame(transport.TypeControl, transport.ChannelControl, 0, f.Payload)
			if err != nil {
				continue
			}
		default:
			r.unroutable.Add(1)
			continue
		}
		r.ingress.Add(1)
		const whole = transport.FlagKeyframe | transport.FlagEndOfFrame
		r.broadcast(p, egressItem{
			sf:            sf,
			selfContained: sf.Type == transport.TypeSemantic && sf.Flags&whole == whole,
		})
	}
}

// broadcast enqueues one item — a plain shared frame, or a complete
// tiered media frame, in which case the queue unit is the whole ladder
// and shedding drops entire media frames, never a single rung of one —
// onto every other subscriber's egress queue: a lock-free walk of the
// copy-on-write peer snapshot with non-blocking puts, so ingress cost is
// O(peers) queue operations no matter how slow any consumer is.
func (r *Relay) broadcast(from *relayPeer, it egressItem) {
	it.from, it.at = from, time.Now()
	for _, p := range *r.snap.Load() {
		if p == from {
			continue
		}
		// Latest-frame-wins Put never blocks; a full queue sheds its
		// oldest frame into the peer's drop counter.
		_ = p.out.Put(r.ctx, it)
	}
	if m := r.m.Load(); m != nil {
		m.broadcastSeconds.Observe(time.Since(it.at).Seconds())
	}
}

// egressCursor is one leg's consumer end of its queue. next is the
// look-ahead: an item taken off the queue to see whether it superseded
// the one in hand, and found not to; it is served by the following
// take, so nothing is ever reordered. Held by value — a pointer here
// would escape and cost an allocation per dequeue.
type egressCursor struct {
	next     egressItem
	haveNext bool
}

// take blocks for the leg's next item, then serves the newest
// self-contained frame already waiting: while the entry behind the one
// in hand supersedes it, the older is shed and the newer taken.
// superseded counts the sheds.
func (c *egressCursor) take(ctx context.Context, q *queue.Queue[egressItem]) (it egressItem, superseded int, err error) {
	if c.haveNext {
		it, c.next, c.haveNext = c.next, egressItem{}, false
	} else if it, err = q.Get(ctx); err != nil {
		return it, 0, err
	}
	for it.selfContained {
		n, ok := q.TryGet()
		if !ok {
			break
		}
		if !it.supersededBy(n) {
			c.next, c.haveNext = n, true
			break
		}
		q.Shed(it)
		superseded++
		it = n
	}
	return it, superseded, nil
}

// egress is the per-subscriber delivery loop: it drains the peer's queue
// newest-wins and writes frames with the peer's own session sequence
// numbers.
func (r *Relay) egress(p *relayPeer) {
	defer r.wg.Done()
	defer close(p.egressDone)
	st := tierEgressState{applied: -1, kfRequested: -1}
	var cur egressCursor
	for {
		it, superseded, err := cur.take(r.ctx, p.out)
		if err != nil {
			return // queue closed and drained, or relay shutting down
		}
		if it.set != nil {
			if p.trunkEgress {
				if r.egressTrunkSet(p, it) != nil {
					return
				}
				continue
			}
			if r.egressTiered(p, it, superseded, &st) != nil {
				// Broken peer: its own pump observes the session error
				// and detaches it.
				return
			}
			continue
		}
		// Per-leg final hop: dequeue time is this leg's recv, the write
		// instant (stamped inside SendSharedBatch) its send — so each
		// subscriber's copy records its own egress queue dwell. A frame
		// without the hop extension ignores it. The flight event (whose
		// queue-dwell payload is known at dequeue) is recorded before the
		// write, so anyone who has received the frame is guaranteed to
		// find it in the recorder.
		deq := obs.NowMicros()
		if it.sf.Flags&transport.FlagHops != 0 {
			obs.Flight.Record(obs.EvRelayEgress, p.site, it.sf.TraceID,
				int64(deq)-it.at.UnixMicro(), 0)
		}
		one := [1]*transport.SharedFrame{it.sf}
		_, err = p.sess.SendSharedBatch(one[:], transport.SharedSendOpts{
			Egress: &obs.Hop{Kind: obs.HopRelayEgress, Site: r.site, RecvMicros: deq},
		})
		if err != nil {
			// Broken peer: its own pump observes the session error and
			// detaches it.
			return
		}
		p.sent.Add(1)
		if m := r.m.Load(); m != nil {
			m.egressSeconds.Observe(time.Since(it.at).Seconds())
		}
	}
}

// tierSignalEvery is the coarse cadence (in served media frames) at
// which an egress leg pings the subscriber for a fresh RTT sample and,
// absent any shedding, refreshes its drop-rate window. The frame after
// each cadence frame carries a trailing ping for a capacity sample.
const tierSignalEvery = 16

// tierEgressState is one egress leg's tier-serving state, local to its
// delivery loop.
type tierEgressState struct {
	applied     int // rung currently served (-1 before the first set)
	kfRequested int // rung we asked the publisher to keyframe (-1 none)

	items         uint64
	baseDropped   uint64
	baseDelivered uint64
	dropRate      float64

	// streams is the latest measured demand of each tiered stream this
	// leg serves; demand is their per-rung sum (legDemand's result).
	streams []legStream
	demand  [transport.MaxTiers]float64
}

// legStream is one publisher's stream as an egress leg sees it: who
// published it, its lead channel, and the demand stamped on its latest
// set.
type legStream struct {
	from   *relayPeer
	lead   uint16
	at     time.Time
	demand [transport.MaxTiers]float64
}

// legDemand is the leg's demand per rung: it serves every stream it
// receives at its one selected rung, so each rung costs the sum of
// those streams' demands at that rung. The leg receives no stream of
// its own participant (broadcast skips the sender), and a stream
// silent for longer than demandGapMax no longer counts.
func (st *tierEgressState) legDemand(it egressItem, now time.Time) []float64 {
	cur := legStream{from: it.from, lead: it.leadChannel(), at: now}
	copy(cur.demand[:], it.set.Demand())
	live, found := st.streams[:0], false
	for _, ls := range st.streams {
		if ls.from == cur.from && ls.lead == cur.lead {
			ls, found = cur, true
		} else if now.Sub(ls.at) > demandGapMax {
			continue
		}
		live = append(live, ls)
	}
	if !found {
		live = append(live, cur)
	}
	st.streams = live
	st.demand = [transport.MaxTiers]float64{}
	for _, ls := range st.streams {
		for t, d := range ls.demand {
			st.demand[t] += d
		}
	}
	return st.demand[:it.set.TierCount()]
}

// egressTiered delivers one tiered media frame to one subscriber: it
// samples the leg's congestion signals, lets the leg's TierSelector
// pick a rung, and writes only that rung's frames. superseded is how
// many older frames this dequeue shed to reach it. A rung change is
// applied mid-stream only on a frame set the receiver can cold-start
// from (every frame a keyframe); otherwise the leg keeps serving its
// old rung and asks the publisher for a tier keyframe, switching when
// it arrives. The first frame of an applied switch carries the
// tier-switch marker so the receiver resets its decoder state on
// exactly that boundary.
func (r *Relay) egressTiered(p *relayPeer, it egressItem, superseded int, st *tierEgressState) error {
	now := time.Now()
	st.items++
	cadence := st.items%tierSignalEvery == 1
	// The capacity ping rides one frame behind the unloaded one, not with
	// it: a link still busy with an earlier write would count that write's
	// time as this frame's. On netsim any write, a lone ping included,
	// holds the link for at least one timer tick (≈1 ms); a frame
	// interval later a leg that keeps up is idle again, and one that does
	// not under-reads its capacity, which only holds it down.
	capacityProbe := st.items%tierSignalEvery == 2
	if cadence || superseded > 0 {
		// Refresh the drop-rate window from the queue's shed counter. A
		// newest-wins leg keeps no standing backlog for the selector to
		// see, so a dequeue that superseded frames is itself the
		// congestion evidence and must reach this very Decide — waiting
		// for the cadence would let a starved leg look calm long enough
		// to probe upward.
		dropped, delivered := p.out.Dropped(), p.sent.Load()
		if dd, ds := dropped-st.baseDropped, delivered-st.baseDelivered; dd+ds > 0 {
			st.dropRate = float64(dd) / float64(dd+ds)
		}
		st.baseDropped, st.baseDelivered = dropped, delivered
	}
	if cadence {
		// Keep the unloaded RTT sample fresh (the subscriber's Recv loop
		// answers the ping; a stalled subscriber inflates RTT, which is
		// itself a congestion signal). Cadence only: a ping per shed would
		// spend a starved link's bytes on probes instead of frames.
		_ = p.sess.Ping()
	}
	target, _ := p.sel.Decide(now, transport.TierSignals{
		QueueDepth:  p.out.Len(),
		QueueCap:    r.queueDepth,
		DropRate:    st.dropRate,
		RTT:         p.sess.RTT(),
		EstimateBps: p.est.EstimateAt(now),
		CapacityBps: p.sess.Capacity(),
		Demand:      st.legDemand(it, now),
	})
	frames, actual := it.set.Nearest(target)
	if frames == nil {
		return nil // unreachable: only complete sets are broadcast
	}
	switching := false
	if st.applied >= 0 && actual != st.applied {
		if allKeyframes(frames) {
			switching = true
		} else {
			// The new rung's frames are deltas; a receiver switching onto
			// them would warm-start from the wrong state. Ask the
			// publisher for a keyframe at that rung (once per pending
			// target) and keep serving the old rung until it lands.
			if st.kfRequested != actual {
				if requestTierKeyframe(it.from, actual) == nil {
					st.kfRequested = actual
				}
			}
			if held, heldTier := it.set.Nearest(st.applied); held != nil {
				frames, actual = held, heldTier
			}
			if actual != st.applied {
				switching = true // the old rung vanished; forced switch
			}
		}
	}
	deq := obs.NowMicros()
	// Flight events go in before the writes: their payloads (queue
	// dwell, rung transition) are fully known at dequeue, and recording
	// first guarantees anyone who has received the frame finds them in
	// the recorder.
	if switching {
		p.tierSwitches.Add(1)
		obs.Flight.Record(obs.EvTierSwitch, p.site, it.set.TraceID(),
			int64(st.applied), int64(actual))
	}
	if tid := it.set.TraceID(); tid != 0 {
		obs.Flight.Record(obs.EvRelayEgress, p.site, tid,
			int64(deq)-it.at.UnixMicro(), int64(actual))
	}
	// The rung leaves as one batch — one connection write when it spans
	// several wire frames or carries a trailing ping, whose extra round
	// trip over the unloaded one is the leg's capacity sample — and the
	// leg's estimator sees the bytes that write actually carried (egress
	// hops included), once per media frame.
	n, err := p.sess.SendSharedBatch(frames, transport.SharedSendOpts{
		Egress:       &obs.Hop{Kind: obs.HopRelayEgress, Site: r.site, RecvMicros: deq},
		TierSwitch:   switching,
		TrailingPing: capacityProbe,
	})
	if err != nil {
		return err
	}
	p.est.Observe(time.Now(), n)
	if st.kfRequested == actual {
		st.kfRequested = -1
	}
	st.applied = actual
	p.tier.Store(int64(actual))
	p.sent.Add(1)
	if m := r.m.Load(); m != nil {
		m.egressSeconds.Observe(time.Since(it.at).Seconds())
	}
	return nil
}

// demandMeter measures one stream's demand per rung from the ladder the
// relay ingests: the rung's egress wire bytes times the stream's frame
// rate, both smoothed. It belongs to the ingress pump that carries the
// stream; an egress leg adds up the streams it serves (legDemand).
type demandMeter struct {
	last time.Time
	// interval is the smoothed time between complete sets (0 until two
	// have arrived); bytes the smoothed egress wire bytes per rung.
	interval time.Duration
	bytes    [transport.MaxTiers]float64
}

// demandGain is the smoothing weight of the newest set; a gap longer
// than demandGapMax (a paused publisher) counts as demandGapMax.
const (
	demandGain   = 1.0 / 8
	demandGapMax = time.Second
)

// stamp folds a newly completed set into the measurement and stamps the
// set with every rung's demand, before any egress leg can see it.
func (m *demandMeter) stamp(set *transport.SharedFrameSet, now time.Time) {
	first := m.last.IsZero()
	if !first {
		gap := min(now.Sub(m.last), demandGapMax)
		if m.interval == 0 {
			m.interval = gap
		} else {
			m.interval += time.Duration(demandGain * float64(gap-m.interval))
		}
	}
	m.last = now
	var demand [transport.MaxTiers]float64
	for t := 0; t < set.TierCount(); t++ {
		b := float64(set.EgressWireLen(t))
		if first {
			m.bytes[t] = b
		} else {
			m.bytes[t] += demandGain * (b - m.bytes[t])
		}
		if m.interval > 0 {
			demand[t] = m.bytes[t] * 8 / m.interval.Seconds()
		}
	}
	set.SetDemand(demand[:set.TierCount()])
}

// egressTrunkSet forwards one complete tiered media frame down a trunk
// leg: every rung, in ladder order, so the downstream shard re-shares
// the full ladder and its own subscriber legs keep tiering
// independently. The whole ladder is one batch — one connection write —
// and each wire frame in it costs what a subscriber leg's does: the
// shared payload's cached CRC is reused, only the 32-byte header is
// rebuilt per leg.
func (r *Relay) egressTrunkSet(p *relayPeer, it egressItem) error {
	deq := obs.NowMicros()
	if tid := it.set.TraceID(); tid != 0 {
		obs.Flight.Record(obs.EvRelayEgress, p.site, tid,
			int64(deq)-it.at.UnixMicro(), int64(it.set.TierCount()))
	}
	ladder := p.ladder[:0]
	for t := 0; t < it.set.TierCount(); t++ {
		ladder = append(ladder, it.set.Tier(t)...)
	}
	_, err := p.sess.SendSharedBatch(ladder, transport.SharedSendOpts{
		Egress: &obs.Hop{Kind: obs.HopRelayEgress, Site: r.site, RecvMicros: deq},
	})
	clear(ladder) // keep the array, not the sent ladder's payloads
	p.ladder = ladder
	if err != nil {
		return err
	}
	p.sent.Add(1)
	if m := r.m.Load(); m != nil {
		m.egressSeconds.Observe(time.Since(it.at).Seconds())
	}
	return nil
}

// setSelfContained reports whether a receiver can cold-start from any
// rung of a complete set — the condition under which a later set makes
// this one worthless to every leg, whichever rung that leg serves.
func setSelfContained(set *transport.SharedFrameSet) bool {
	for t := 0; t < set.TierCount(); t++ {
		if !allKeyframes(set.Tier(t)) {
			return false
		}
	}
	return true
}

// allKeyframes reports whether every wire frame of a rung is a keyframe
// — the condition under which a receiver can cold-start from it.
func allKeyframes(frames []*transport.SharedFrame) bool {
	for _, sf := range frames {
		if sf.Flags&transport.FlagKeyframe == 0 {
			return false
		}
	}
	return len(frames) > 0
}

// requestTierKeyframe asks the originating participant for a
// self-contained frame at the given rung (wired to
// TierLadder.RequestKeyframe through the sender's control plane).
func requestTierKeyframe(from *relayPeer, tier int) error {
	if from == nil {
		return fmt.Errorf("core: tiered frame with no origin peer")
	}
	payload, err := json.Marshal(controlMsg{Kind: "keyframe", Tier: tier})
	if err != nil {
		return err
	}
	return from.sess.SendControl(payload)
}

// benignSessionError reports errors that mean "the peer or the relay
// went away on purpose" — the expected ends of a pump's life.
func benignSessionError(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.Canceled)
}

// detach removes the peer from the fan-out set and closes its egress
// queue (pump-internal; the pump's own exit path). Keyed by peer
// pointer, not name, so a re-attached name is never detached by its
// predecessor's exiting pump.
func (r *Relay) detach(p *relayPeer) {
	r.mu.Lock()
	if r.peers[p.name] == p {
		delete(r.peers, p.name)
		r.storeSnapshotLocked()
	}
	r.mu.Unlock()
	p.out.Close()
}

// Detach disconnects one participant: its session is closed, its pump
// and egress goroutines joined, and its name freed for re-attachment.
// Detaching an unknown name is a no-op.
func (r *Relay) Detach(name string) {
	r.mu.Lock()
	p, ok := r.peers[name]
	r.mu.Unlock()
	if !ok {
		return
	}
	_ = p.sess.Close()
	<-p.done
	<-p.egressDone
}

// closeAllSessions force-closes every attached session, unblocking
// every pump. Idempotent (Session.Close is).
func (r *Relay) closeAllSessions() {
	r.mu.Lock()
	peers := make([]*relayPeer, 0, len(r.peers))
	for _, p := range r.peers {
		peers = append(peers, p)
	}
	r.mu.Unlock()
	for _, p := range peers {
		_ = p.sess.Close()
	}
}

// Close shuts the relay down: no further Attach succeeds, every
// participant session is closed, and every pump and egress goroutine is
// joined before Close returns. It reports the first abnormal
// participant error observed over the relay's lifetime, if any.
func (r *Relay) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel() // fires closeAllSessions via AfterFunc
	r.wg.Wait()
	r.stopWatch()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
