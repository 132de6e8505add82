package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"semholo/internal/netsim"
)

// waitUnroutable polls until the relay has counted want unroutable
// frames: the frame was seen and dropped, so it can never arrive later.
func waitUnroutable(t *testing.T, r *Relay, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(eventWait); r.Unroutable() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("unroutable = %d, want %d", r.Unroutable(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectFrom reads viewer's next frame and checks that it is from's
// keypoint frame (its payload is from's name), in from's block.
func expectFrom(t *testing.T, viewer, from *relayParticipant) {
	t.Helper()
	f, err := viewer.sess.Recv()
	if err != nil {
		t.Fatalf("%s: %v", viewer.name, err)
	}
	idx, orig := splitParticipant(f.Channel)
	if idx != from.idx || orig != ChanKeypointData || string(f.Payload) != from.name {
		t.Fatalf("%s got %q on block %d channel %d, want %s's frame on block %d channel %d",
			viewer.name, f.Payload, idx, orig, from.name, from.idx, ChanKeypointData)
	}
}

// TestRelayChannelOutsideBlockUnroutable: a participant's frame on a
// channel at or above ParticipantChannelStride would be re-homed into the
// next participant's block; the relay drops it as unroutable instead, and
// every delivered frame sits in its sender's block.
func TestRelayChannelOutsideBlockUnroutable(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	defer r.Close()
	alice := attachParticipant(t, r, "alice") // block 0
	bob := attachParticipant(t, r, "bob")     // block 1
	carol := attachParticipant(t, r, "carol") // block 2
	defer alice.link.Close()
	defer bob.link.Close()
	defer carol.link.Close()

	// 1020 would arrive as block 1's ChanKeypointData: bob's stream.
	if err := sendData(alice.sess, ParticipantChannelStride+ChanKeypointData, 0, []byte("forged")); err != nil {
		t.Fatal(err)
	}
	// The same pump then forwards a channel inside alice's block, which
	// orders the subscribers' reads after the dropped frame.
	if err := sendData(alice.sess, ChanKeypointData, 0, []byte(alice.name)); err != nil {
		t.Fatal(err)
	}
	expectFrom(t, bob, alice)
	expectFrom(t, carol, alice)
	if got := r.Unroutable(); got != 1 {
		t.Errorf("unroutable = %d, want 1", got)
	}
}

// TestRelayBlocksReusedNeverShared attaches more peers than there are
// blocks whose channels fit in a uint16 — none is refused — then churns
// the relay through 100 detach and attach cycles: every attach gets the
// lowest block no live peer holds. A frame from a reused block arrives
// in that block; a peer past the last block still receives, but its
// frames reach no one.
func TestRelayBlocksReusedNeverShared(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	defer r.Close()
	live := map[string]*relayParticipant{}
	defer func() {
		for _, p := range live {
			p.link.Close()
		}
	}()
	n := 0
	attach := func() *relayParticipant {
		p := attachParticipant(t, r, fmt.Sprintf("p%d", n))
		n++
		held := map[int]string{}
		for _, q := range live {
			held[q.idx] = q.name
		}
		if other, ok := held[p.idx]; ok {
			t.Fatalf("%s got block %d, already held by %s", p.name, p.idx, other)
		}
		lowest := 0
		for _, ok := held[lowest]; ok; _, ok = held[lowest] {
			lowest++
		}
		if p.idx != lowest {
			t.Fatalf("%s got block %d, want the lowest free block %d", p.name, p.idx, lowest)
		}
		live[p.name] = p
		return p
	}
	const peers = participantBlocks + 3
	for len(live) < peers {
		attach()
	}
	rng := rand.New(rand.NewSource(1))
	for cycle := 0; cycle < 100; cycle++ {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			names := r.Peers()
			victim := live[names[rng.Intn(len(names))]]
			r.Detach(victim.name)
			victim.link.Close()
			delete(live, victim.name)
		}
		for len(live) < peers {
			attach()
		}
	}
	// Free block 0 once more; the next attach must take it.
	for _, p := range live {
		if p.idx == 0 {
			r.Detach(p.name)
			p.link.Close()
			delete(live, p.name)
			break
		}
	}
	reused := attach()
	var beyond, viewer *relayParticipant
	for _, p := range live {
		switch {
		case p.idx >= participantBlocks:
			beyond = p
		case p != reused:
			viewer = p
		}
	}

	// The peer past the last block sends first: its frame is dropped.
	if err := sendData(beyond.sess, ChanKeypointData, 0, []byte(beyond.name)); err != nil {
		t.Fatal(err)
	}
	waitUnroutable(t, r, 1)
	if err := sendData(reused.sess, ChanKeypointData, 0, []byte(reused.name)); err != nil {
		t.Fatal(err)
	}
	expectFrom(t, viewer, reused)
	expectFrom(t, beyond, reused)
}

// TestRelayTrunkEgressDoesNotRehome: a child relay forwards its own
// participants' frames, already re-homed into the child's blocks, up its
// trunk-ingress session. The parent's trunk-egress leg is not exempt
// from the block check, so such a frame is unroutable on the parent
// instead of landing in a parent participant's block.
func TestRelayTrunkEgressDoesNotRehome(t *testing.T) {
	parent, child := NewRelayOpts(t.Context(), RelayOptions{}), NewRelayOpts(t.Context(), RelayOptions{})
	defer parent.Close()
	defer child.Close()
	trunk := attachPeer(t, parent, "trunk:child", netsim.LinkConfig{}, AttachOptions{TrunkEgress: true}) // parent block 0
	defer trunk.link.Close()
	if _, err := child.AttachPeer("trunk:parent", trunk.sess, AttachOptions{TrunkIngress: true}); err != nil { // child block 0
		t.Fatal(err)
	}
	alice := attachParticipant(t, parent, "alice") // parent block 1
	bob := attachParticipant(t, parent, "bob")     // parent block 2
	carol := attachParticipant(t, child, "carol")  // child block 1
	defer alice.link.Close()
	defer bob.link.Close()
	defer carol.link.Close()

	// The child re-homes carol's channel 20 to 1020, which the parent's
	// trunk leg would otherwise deliver as alice's keypoint stream.
	if err := sendData(carol.sess, ChanKeypointData, 0, []byte(carol.name)); err != nil {
		t.Fatal(err)
	}
	waitUnroutable(t, parent, 1)
	if err := sendData(alice.sess, ChanKeypointData, 0, []byte(alice.name)); err != nil {
		t.Fatal(err)
	}
	expectFrom(t, bob, alice)
}
