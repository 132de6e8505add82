package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"semholo/internal/core"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// TrunkPeerPrefix marks a relay-to-relay peer name on the wire: a
// handshake Hello whose Peer carries this prefix attaches as a trunk
// leg (egress on the accepting side), not as a subscriber. Participant
// names with this prefix are rejected at admission.
const TrunkPeerPrefix = "trunk/"

// ShardOptions tunes one relay shard.
type ShardOptions struct {
	// Site is the shard's byte ID in hop-trace records — each cascade
	// level a frame crosses stamps ingress/egress hops with its shard's
	// site, which is how a waterfall attributes trunk dwell vs leaf
	// dwell.
	Site byte
	// QueueDepth bounds every egress queue on this shard's relays
	// (subscriber and trunk legs alike; zero means the relay default).
	QueueDepth int
	// TierLevels, when non-nil, enables per-subscriber tiering on every
	// room relay this shard hosts. Trunk legs always forward the full
	// ladder regardless, so every shard in a cascade must share the same
	// ladder for its local TierSelectors to be meaningful.
	TierLevels []transport.RateLevel
	// MaxRooms caps concurrently hosted rooms (admission control;
	// 0 = unlimited).
	MaxRooms int
	// MaxSubscribersPerRoom caps non-trunk peers per room relay
	// (admission control; 0 = unlimited).
	MaxSubscribersPerRoom int
	// Registry, when non-nil, receives this shard's capacity series and
	// every room relay's fan-out series (room-labeled). One registry per
	// shard: in production each shard is a process with its own
	// /metrics, and relay series from two shards hosting the same room
	// would collide on one registry.
	Registry *obs.Registry
}

// Shard hosts one relay per active room and admits participants by
// room. It is the unit the RoomManager places rooms onto and wires
// trunks between; it can also run alone (no manager) as a flat
// single-process relay fleet.
type Shard struct {
	id  string
	opt ShardOptions

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	relays map[string]*core.Relay
	closed bool

	// onRoomActive, set by the RoomManager, is consulted before a room
	// relay is created so the manager can veto placement (wrong shard
	// for a publisher) or wire cascade trunks first.
	onRoomActive func(room string) error

	rejectedRooms atomic.Uint64
	rejectedSubs  atomic.Uint64
}

// NewShard builds an idle shard.
func NewShard(id string, opt ShardOptions) *Shard {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Shard{id: id, opt: opt, ctx: ctx, cancel: cancel, relays: map[string]*core.Relay{}}
	if opt.Registry != nil {
		s.instrument(opt.Registry)
	}
	return s
}

// ID returns the shard's cluster-wide identifier.
func (s *Shard) ID() string { return s.id }

func (s *Shard) instrument(reg *obs.Registry) {
	reg.Gauge("semholo_cluster_shard_rooms",
		"Rooms currently hosted by the shard.", "shard").
		Func(func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.relays))
		}, s.id)
	reg.Gauge("semholo_cluster_shard_peers",
		"Attached peers across the shard's rooms (subscribers, publishers, and trunk legs).", "shard").
		Func(func() float64 {
			total := 0
			for _, r := range s.snapshotRelays() {
				total += len(r.Peers())
			}
			return float64(total)
		}, s.id)
	reg.Counter("semholo_cluster_admission_rejected_total",
		"Joins refused by admission control.", "shard", "reason").
		Func(func() float64 { return float64(s.rejectedRooms.Load()) }, s.id, "rooms")
	reg.Counter("semholo_cluster_admission_rejected_total",
		"Joins refused by admission control.", "shard", "reason").
		Func(func() float64 { return float64(s.rejectedSubs.Load()) }, s.id, "subscribers")
}

func (s *Shard) snapshotRelays() []*core.Relay {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.Relay, 0, len(s.relays))
	for _, r := range s.relays {
		out = append(out, r)
	}
	return out
}

// Relay returns the room's relay, or nil when the room is not hosted
// here. Exposed for stats and tests; fan-out wiring goes through
// Accept and the RoomManager.
func (s *Shard) Relay(room string) *core.Relay {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.relays[room]
}

// ensureRelay returns the room's relay, creating it (after the
// manager's activation hook and the MaxRooms admission check) on first
// use.
func (s *Shard) ensureRelay(room string) (*core.Relay, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("cluster: shard %s is closed", s.id)
	}
	if r, ok := s.relays[room]; ok {
		s.mu.Unlock()
		return r, nil
	}
	if s.opt.MaxRooms > 0 && len(s.relays) >= s.opt.MaxRooms {
		s.rejectedRooms.Add(1)
		s.mu.Unlock()
		return nil, fmt.Errorf("cluster: shard %s at room capacity (%d)", s.id, s.opt.MaxRooms)
	}
	hook := s.onRoomActive
	s.mu.Unlock()

	// The activation hook runs unlocked: the manager may dial trunks,
	// which attach peers on *other* shards (and, for interior tree
	// nodes, recurse into this shard's ensureRelay via newRoomRelay).
	if hook != nil {
		if err := hook(room); err != nil {
			return nil, err
		}
		// The manager's activation created the relay (possibly wiring
		// trunk legs onto it); re-read under the lock.
		s.mu.Lock()
		defer s.mu.Unlock()
		if r, ok := s.relays[room]; ok {
			return r, nil
		}
		return nil, fmt.Errorf("cluster: activation of room %q left shard %s without a relay", room, s.id)
	}
	return s.newRoomRelay(room)
}

// newRoomRelay creates and registers the room's relay unconditionally
// (MaxRooms was checked by the caller). Used by ensureRelay in
// standalone mode and by the RoomManager during activation.
func (s *Shard) newRoomRelay(room string) (*core.Relay, error) {
	r := core.NewRelayOpts(s.ctx, core.RelayOptions{
		QueueDepth: s.opt.QueueDepth,
		Site:       s.opt.Site,
		Room:       room,
		TierLevels: s.opt.TierLevels,
		Registry:   s.opt.Registry,
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		r.Close()
		return nil, fmt.Errorf("cluster: shard %s is closed", s.id)
	}
	if existing, ok := s.relays[room]; ok {
		r.Close()
		return existing, nil
	}
	s.relays[room] = r
	return r, nil
}

// Accept runs the server side of the handshake on conn and attaches the
// peer to its room's relay (creating the relay, and — under a manager —
// activating the room's cascade, on first join). A Hello.Peer carrying
// TrunkPeerPrefix attaches as a trunk-egress leg: the remote end is a
// downstream shard that will re-share this room, so it gets the full
// tier ladder and no TierSelector. Everyone else is a participant,
// counted against MaxSubscribersPerRoom. On admission failure the
// session is closed (the dialer sees EOF) and the error returned.
func (s *Shard) Accept(conn net.Conn) (room, peer string, err error) {
	sess, hello, err := transport.AcceptContext(s.ctx, conn, transport.Hello{Peer: s.id})
	if err != nil {
		return "", "", err
	}
	room, peer = hello.Room, hello.Peer
	if room == "" {
		room = "default"
	}
	trunk := strings.HasPrefix(peer, TrunkPeerPrefix)
	relay, err := s.ensureRelay(room)
	if err != nil {
		_ = sess.Close()
		return room, peer, err
	}
	if !trunk && s.opt.MaxSubscribersPerRoom > 0 {
		if n := s.countSubscribers(relay); n >= s.opt.MaxSubscribersPerRoom {
			s.rejectedSubs.Add(1)
			_ = sess.Close()
			return room, peer, fmt.Errorf("cluster: room %q on shard %s at subscriber capacity (%d)", room, s.id, s.opt.MaxSubscribersPerRoom)
		}
	}
	if _, err := relay.AttachPeer(peer, sess, core.AttachOptions{TrunkEgress: trunk}); err != nil {
		_ = sess.Close()
		return room, peer, err
	}
	return room, peer, nil
}

// countSubscribers counts a relay's non-trunk peers — the population
// MaxSubscribersPerRoom bounds. Reading live peers (rather than a
// separate admit counter) self-heals on detach.
func (s *Shard) countSubscribers(r *core.Relay) int {
	n := 0
	for _, name := range r.Peers() {
		if !strings.HasPrefix(name, TrunkPeerPrefix) {
			n++
		}
	}
	return n
}

// hasRoomCapacity reports whether admission would accept one more room
// — the ring's availability predicate during placement.
func (s *Shard) hasRoomCapacity() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && (s.opt.MaxRooms == 0 || len(s.relays) < s.opt.MaxRooms)
}

// closeRoom shuts down a room's relay if hosted here (manager teardown
// path).
func (s *Shard) closeRoom(room string) {
	s.mu.Lock()
	r := s.relays[room]
	delete(s.relays, room)
	s.mu.Unlock()
	if r != nil {
		_ = r.Close()
	}
}

// Close shuts down every room relay and refuses further joins. Safe to
// call more than once.
func (s *Shard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	relays := make([]*core.Relay, 0, len(s.relays))
	for _, r := range s.relays {
		relays = append(relays, r)
	}
	s.relays = map[string]*core.Relay{}
	s.mu.Unlock()
	s.cancel()
	var first error
	for _, r := range relays {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
