package cluster

import (
	"fmt"
	"math"
	"testing"
)

func ringShards(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard-%02d", i)
	}
	return ids
}

func TestRingBoundedLoad(t *testing.T) {
	const shards, rooms = 8, 1000
	r := NewRing(0)
	for _, id := range ringShards(shards) {
		r.AddShard(id)
	}
	loads := map[string]int{}
	for _, id := range ringShards(shards) {
		loads[id] = 0
	}
	for i := 0; i < rooms; i++ {
		s, err := r.Assign(fmt.Sprintf("room-%d", i), nil)
		if err != nil {
			t.Fatalf("assign room-%d: %v", i, err)
		}
		loads[s]++
	}
	bound := int(math.Ceil(DefaultLoadFactor * rooms / shards))
	total := 0
	for id, load := range loads {
		total += load
		if load > bound {
			t.Errorf("shard %s load %d exceeds bound %d", id, load, bound)
		}
		if load == 0 {
			t.Errorf("shard %s received no rooms out of %d", id, rooms)
		}
	}
	if total != rooms {
		t.Errorf("total assigned = %d, want %d", total, rooms)
	}
}

func TestRingDeterministicAndSticky(t *testing.T) {
	build := func() map[string]string {
		r := NewRing(32)
		for _, id := range ringShards(5) {
			r.AddShard(id)
		}
		got := map[string]string{}
		for i := 0; i < 200; i++ {
			room := fmt.Sprintf("room-%d", i)
			s, err := r.Assign(room, nil)
			if err != nil {
				t.Fatal(err)
			}
			got[room] = s
			// Sticky: a second Assign returns the same shard without
			// growing the load.
			again, err := r.Assign(room, nil)
			if err != nil || again != s {
				t.Fatalf("re-assign %s = %s, %v; want sticky %s", room, again, err, s)
			}
		}
		return got
	}
	a, b := build(), build()
	for room, s := range a {
		if b[room] != s {
			t.Fatalf("placement not deterministic: %s → %s vs %s", room, s, b[room])
		}
	}
}

func TestRingAvailabilityPredicate(t *testing.T) {
	r := NewRing(16)
	r.AddShard("up")
	r.AddShard("down")
	// Every room goes to "up" until its load bound stops it; a vetoed
	// shard is never the fallback.
	placed := 0
	for i := 0; i < 50; i++ {
		s, err := r.Assign(fmt.Sprintf("room-%d", i), func(id string) bool { return id != "down" })
		if err != nil {
			break
		}
		if s != "up" {
			t.Fatalf("room-%d placed on vetoed shard %s", i, s)
		}
		placed++
	}
	if placed == 0 {
		t.Fatal("no room placed on the one available shard")
	}
	if _, err := r.Assign("rejected", func(string) bool { return false }); err == nil {
		t.Fatal("assign with all shards vetoed should fail")
	}
}

// TestRingLookupMinimalDisruption: the pure Lookup every relay daemon
// computes is stable across independently built rings that differ by
// one shard — survivors' vnode points are identical, so only rooms that
// hashed to the missing shard (room-0's, so some room does) resolve
// elsewhere.
func TestRingLookupMinimalDisruption(t *testing.T) {
	full := NewRing(0)
	for _, id := range ringShards(6) {
		full.AddShard(id)
	}
	victim := full.Lookup("room-0")
	smaller := NewRing(0)
	for _, id := range ringShards(6) {
		if id != victim {
			smaller.AddShard(id)
		}
	}
	for i := 0; i < 300; i++ {
		room := fmt.Sprintf("room-%d", i)
		a, b := full.Lookup(room), smaller.Lookup(room)
		if a != victim && a != b {
			t.Errorf("lookup moved room %s %s→%s though its shard survived", room, a, b)
		}
	}
}

// TestRingLookupSpreadsRooms: the pure Lookup semholo-relayd homes
// rooms with must use every shard. Sequential room names differ only in
// their last digits, which a hash without a finaliser leaves clustered
// on one arc of the ring.
func TestRingLookupSpreadsRooms(t *testing.T) {
	const rooms = 300
	for _, shards := range []int{2, 3, 6, 8} {
		r := NewRing(0)
		for _, id := range ringShards(shards) {
			r.AddShard(id)
		}
		loads := map[string]int{}
		for i := 0; i < rooms; i++ {
			loads[r.Lookup(fmt.Sprintf("room-%d", i))]++
		}
		mean := float64(rooms) / float64(shards)
		for _, id := range ringShards(shards) {
			if float64(loads[id]) < mean/2 {
				t.Errorf("%d shards: %s homes %d rooms, under half the mean %.1f", shards, id, loads[id], mean)
			}
		}
	}
}

func TestTreeDepth(t *testing.T) {
	// K=2 heap: index 0 root; 1,2 depth 1; 3..6 depth 2.
	for i, want := range []int{0, 1, 1, 2, 2, 2, 2, 3} {
		if got := treeDepth(i, 2); got != want {
			t.Errorf("treeDepth(%d, 2) = %d, want %d", i, got, want)
		}
	}
	// K=1 chain: depth == index.
	for i := 0; i < 5; i++ {
		if got := treeDepth(i, 1); got != i {
			t.Errorf("treeDepth(%d, 1) = %d, want %d", i, got, i)
		}
	}
}
