// Package cluster scales the relay fabric past one process: a room
// manager consistent-hashes room IDs onto relay shards, and a hot room
// cascades across shards through relay-to-relay trunk links arranged in
// a K-ary tree rooted at the room's home shard. The paper's two-site
// pipeline (and PR 5/9's single-relay fan-out) stays intact — the
// cluster composes whole relays, it never opens their frames.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes and bounded-load
// assignment (Mirrokni et al.'s "consistent hashing with bounded
// loads"): a room hashes to a point on the ring and walks clockwise to
// the first shard that is neither at its load bound nor vetoed by the
// caller's availability predicate. The bound — ceil(DefaultLoadFactor
// × rooms / shards) — caps how far any shard can drift above the mean,
// so one unlucky hash range can never melt a shard while its neighbors
// idle.
//
// Assignment is deterministic in (shard set, assignment order): the
// same rooms assigned in the same order land on the same shards, which
// is what makes cluster tests and benchmarks reproducible. Ring is not
// safe for concurrent use; the RoomManager serializes access.
type Ring struct {
	vnodes int

	points   []ringPoint // sorted by hash
	loads    map[string]int
	assigned map[string]string // room → shard
}

type ringPoint struct {
	hash  uint64
	shard string
}

// DefaultVirtualNodes is the per-shard virtual-node count used when
// NewRing is passed zero: enough points that an 8-shard ring's arc
// lengths even out, small enough that rebuild cost is trivial.
const DefaultVirtualNodes = 64

// DefaultLoadFactor is the bounded-load headroom: no shard takes more
// than ceil(1.25 × mean) rooms. It must exceed 1, or assignment would
// deadlock (some shard must be allowed to sit above the exact mean).
const DefaultLoadFactor = 1.25

// NewRing builds an empty ring with vnodes virtual nodes per shard
// (≤ 0 means DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{
		vnodes:   vnodes,
		loads:    map[string]int{},
		assigned: map[string]string{},
	}
}

// AddShard inserts a shard's virtual nodes. Adding a present shard is a
// no-op. Existing assignments are not migrated — placement is sticky by
// design (a live room should not jump shards because capacity arrived).
func (r *Ring) AddShard(id string) {
	if _, ok := r.loads[id]; ok {
		return
	}
	r.loads[id] = 0
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(i)), shard: id})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Assign places a room: the sticky prior assignment if one exists,
// otherwise the first clockwise shard from the room's hash point that
// is under the load bound and passes ok (nil means every shard is
// eligible). The chosen shard's load is incremented.
func (r *Ring) Assign(room string, ok func(shard string) bool) (string, error) {
	if s, have := r.assigned[room]; have {
		return s, nil
	}
	if len(r.points) == 0 {
		return "", fmt.Errorf("cluster: ring has no shards")
	}
	bound := int(math.Ceil(DefaultLoadFactor * float64(len(r.assigned)+1) / float64(len(r.loads))))
	h := hash64(room)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.loads))
	for i := 0; i < len(r.points) && len(seen) < len(r.loads); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		if r.loads[p.shard] >= bound {
			continue
		}
		if ok != nil && !ok(p.shard) {
			continue
		}
		r.loads[p.shard]++
		r.assigned[room] = p.shard
		return p.shard, nil
	}
	return "", fmt.Errorf("cluster: no shard can admit room %q (%d shards, load bound %d)", room, len(r.loads), bound)
}

// Release forgets a room's assignment and decrements its shard's load.
// Unknown rooms are a no-op.
func (r *Ring) Release(room string) {
	if s, ok := r.assigned[room]; ok {
		delete(r.assigned, room)
		if r.loads[s] > 0 {
			r.loads[s]--
		}
	}
}

// Lookup is the pure (unbounded, stateless) clockwise lookup — the
// classic consistent-hash answer every semholo-relayd daemon computes
// alike for a room's home shard. It ignores load and assignments.
func (r *Ring) Lookup(room string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(room)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].shard
}

// hash64 is FNV-1a followed by splitmix64's finaliser — deterministic
// across runs and platforms, which placement tests and reproducible
// benchmarks depend on. Bare FNV-1a put every one of room-0…room-299
// on two shards of six; the finaliser spreads each input bit over the
// whole word, so sequential names scatter round the ring
// (TestRingLookupSpreadsRooms).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
