package cluster

import (
	"fmt"
	"sync"
)

// ManagerOptions tunes a RoomManager.
type ManagerOptions struct {
	// Fanout is K of the cascade tree: each shard in a room's tree
	// feeds at most K downstream shards, so depth grows log_K with the
	// member count. Default DefaultFanout.
	Fanout int
	// TrunkDial opens the byte stream for each trunk leg; nil dials
	// in-process over net.Pipe. Benchmarks substitute netsim pipes so
	// trunks cross emulated WANs.
	TrunkDial TrunkDialFunc
}

// DefaultFanout is the cascade tree's K when ManagerOptions.Fanout is
// zero: wide enough that 8 shards sit within depth 1 of the home,
// narrow enough that no shard's trunk legs outnumber a handful of
// subscribers.
const DefaultFanout = 4

// RoomManager places rooms onto shards (bounded-load consistent
// hashing) and, when a room's audience spans shards, wires the member
// shards into a K-ary cascade tree of trunk links rooted at the room's
// home shard. Frames enter at the home shard (publishers attach there),
// cascade down trunk legs that cost the same as one subscriber each,
// and fan out to local subscribers at every member — so a hot room's
// per-shard egress work stays bounded by that shard's own audience
// plus at most K trunks.
type RoomManager struct {
	opt ManagerOptions

	mu     sync.Mutex
	ring   *Ring
	shards map[string]*Shard
	rooms  map[string]*roomState
}

// roomState is one room's cascade tree: members[0] is the home shard,
// later members appear in join order, and the parent of members[i] is
// members[(i-1)/K] — a K-ary heap shape, stable under appends so a new
// member never re-parents an existing trunk.
type roomState struct {
	members []string
	trunks  map[string]*trunk // keyed by child shard ID
}

func (rs *roomState) memberIndex(shardID string) int {
	for i, m := range rs.members {
		if m == shardID {
			return i
		}
	}
	return -1
}

// NewRoomManager builds an empty manager; add shards before activating
// rooms.
func NewRoomManager(opt ManagerOptions) *RoomManager {
	if opt.Fanout <= 0 {
		opt.Fanout = DefaultFanout
	}
	if opt.TrunkDial == nil {
		opt.TrunkDial = pipeTrunkDial
	}
	return &RoomManager{
		opt:    opt,
		ring:   NewRing(DefaultVirtualNodes),
		shards: map[string]*Shard{},
		rooms:  map[string]*roomState{},
	}
}

// AddShard registers a shard with the manager and hooks its room
// activation, so a participant landing on any shard pulls the room's
// cascade into existence.
func (m *RoomManager) AddShard(s *Shard) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.shards[s.id]; dup {
		return fmt.Errorf("cluster: shard %q already registered", s.id)
	}
	m.shards[s.id] = s
	m.ring.AddShard(s.id)
	s.mu.Lock()
	s.onRoomActive = func(room string) error { return m.ActivateRoom(room, s.id) }
	s.mu.Unlock()
	return nil
}

// HomeShard returns (assigning on first ask) the room's home shard —
// where its publishers must attach, and the root of its cascade tree.
func (m *RoomManager) HomeShard(room string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rs, ok := m.rooms[room]; ok {
		return rs.members[0], nil
	}
	return m.ring.Assign(room, m.shardAvailableLocked)
}

func (m *RoomManager) shardAvailableLocked(id string) bool {
	s, ok := m.shards[id]
	return ok && s.hasRoomCapacity()
}

// RoomMembers returns the room's cascade tree in tree order (home
// first), or nil for an unplaced room.
func (m *RoomManager) RoomMembers(room string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.rooms[room]
	if rs == nil {
		return nil
	}
	return append([]string(nil), rs.members...)
}

// CascadeDepth returns how many trunk hops separate the shard from the
// room's home (0 for the home itself, -1 when the shard is not a
// member).
func (m *RoomManager) CascadeDepth(room, shardID string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.rooms[room]
	if rs == nil {
		return -1
	}
	i := rs.memberIndex(shardID)
	if i < 0 {
		return -1
	}
	return treeDepth(i, m.opt.Fanout)
}

// treeDepth is the depth of heap index i in a K-ary tree (root = 0).
func treeDepth(i, k int) int {
	d := 0
	for i > 0 {
		i = (i - 1) / k
		d++
	}
	return d
}

// ActivateRoom ensures the room is served on the given shard: places
// the room on its home shard on first activation, and — when shardID is
// not the home — joins the shard to the room's cascade tree, creating
// its relay and dialing the trunk leg from its tree parent. Idempotent
// per (room, shard). Called implicitly by Shard.Accept on a room's
// first local join.
func (m *RoomManager) ActivateRoom(room, shardID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	target, ok := m.shards[shardID]
	if !ok {
		return fmt.Errorf("cluster: unknown shard %q", shardID)
	}

	rs := m.rooms[room]
	if rs == nil {
		home, err := m.ring.Assign(room, m.shardAvailableLocked)
		if err != nil {
			return err
		}
		if _, err := m.shards[home].newRoomRelay(room); err != nil {
			m.ring.Release(room)
			return err
		}
		rs = &roomState{members: []string{home}, trunks: map[string]*trunk{}}
		m.rooms[room] = rs
	}
	if rs.memberIndex(shardID) >= 0 {
		return nil // already in the tree (possibly as home)
	}

	// Join the tree: the new member's heap index fixes its parent, which
	// is already a live member (members only append), so the trunk path
	// home→…→parent exists by induction.
	idx := len(rs.members)
	parentID := rs.members[(idx-1)/m.opt.Fanout]
	parent := m.shards[parentID]
	parentRelay := parent.Relay(room)
	if parentRelay == nil {
		return fmt.Errorf("cluster: room %q lost its relay on member shard %s", room, parentID)
	}
	childRelay, err := target.newRoomRelay(room)
	if err != nil {
		return err
	}
	t, err := dialTrunk(parent, target, parentRelay, childRelay, room, m.opt.TrunkDial)
	if err != nil {
		target.closeRoom(room)
		return err
	}
	rs.members = append(rs.members, shardID)
	rs.trunks[shardID] = t
	return nil
}

// ReconnectTrunk tears down and re-dials the trunk feeding the given
// member shard (recovery after a trunk link failure). Local subscriber
// sessions on the member are untouched, so their per-channel sequence
// numbering continues across the reconnect; frames in flight on the old
// trunk are lost, exactly like frames shed by a full egress queue.
func (m *RoomManager) ReconnectTrunk(room, childID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.rooms[room]
	if rs == nil {
		return fmt.Errorf("cluster: room %q is not placed", room)
	}
	old, ok := rs.trunks[childID]
	if !ok {
		return fmt.Errorf("cluster: shard %s has no trunk for room %q", childID, room)
	}
	old.close()
	parent, child := m.shards[old.parent], m.shards[old.child]
	parentRelay, childRelay := parent.Relay(room), child.Relay(room)
	if parentRelay == nil || childRelay == nil {
		delete(rs.trunks, childID)
		return fmt.Errorf("cluster: room %q relay missing during trunk reconnect %s→%s", room, old.parent, old.child)
	}
	// The old trunk legs detach asynchronously (each relay's pump
	// observes its session closing); the replacement attaches under
	// fresh peer names only once the old ones are gone, so wait for the
	// detach by re-dialing through dialTrunk, which retries the attach
	// via the relays' own duplicate-name rejection.
	parentRelay.Detach(TrunkPeerPrefix + old.child)
	childRelay.Detach(TrunkPeerPrefix + old.parent)
	t, err := dialTrunk(parent, child, parentRelay, childRelay, room, m.opt.TrunkDial)
	if err != nil {
		delete(rs.trunks, childID)
		return err
	}
	rs.trunks[childID] = t
	return nil
}

// CloseRoom tears down a room everywhere: trunks first (leaf-ward
// shards stop receiving), then every member's relay, then the ring
// assignment.
func (m *RoomManager) CloseRoom(room string) {
	m.mu.Lock()
	rs := m.rooms[room]
	delete(m.rooms, room)
	var members []string
	if rs != nil {
		members = rs.members
		for _, t := range rs.trunks {
			t.close()
		}
	}
	shards := make([]*Shard, 0, len(members))
	for _, id := range members {
		if s, ok := m.shards[id]; ok {
			shards = append(shards, s)
		}
	}
	m.ring.Release(room)
	m.mu.Unlock()
	for _, s := range shards {
		s.closeRoom(room)
	}
}

// Close tears down every room and every registered shard.
func (m *RoomManager) Close() error {
	m.mu.Lock()
	rooms := make([]string, 0, len(m.rooms))
	for room := range m.rooms {
		rooms = append(rooms, room)
	}
	shards := make([]*Shard, 0, len(m.shards))
	for _, s := range m.shards {
		shards = append(shards, s)
	}
	m.mu.Unlock()
	for _, room := range rooms {
		m.CloseRoom(room)
	}
	var first error
	for _, s := range shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
