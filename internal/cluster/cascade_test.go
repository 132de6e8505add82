package cluster

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"semholo/internal/obs"
	"semholo/internal/transport"
)

// dialShard connects a participant to a shard over an in-process pipe,
// running the shard's Accept (which admits, activates the room, and
// attaches) concurrently with the client handshake. It returns once the
// peer is fully attached, so frames sent immediately after are fanned
// out.
func dialShard(t *testing.T, s *Shard, room, peer string) *transport.Session {
	t.Helper()
	c, srv := net.Pipe()
	accepted := make(chan error, 1)
	go func() {
		_, _, err := s.Accept(srv)
		accepted <- err
	}()
	sess, _, err := transport.Dial(c, transport.Hello{Peer: peer, Room: room})
	if err != nil {
		t.Fatalf("dial %s→%s: %v", peer, s.ID(), err)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("accept %s on %s: %v", peer, s.ID(), err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	return sess
}

// chainCluster builds a fanout-1 manager over n shards and returns it
// with the shards keyed by ID. Fanout 1 makes the cascade tree a chain,
// so member i of a room sits at cascade depth i — the shape the depth
// tests need.
func chainCluster(t *testing.T, n int) (*RoomManager, map[string]*Shard) {
	t.Helper()
	m := NewRoomManager(ManagerOptions{Fanout: 1})
	shards := map[string]*Shard{}
	for i := 0; i < n; i++ {
		s := NewShard(fmt.Sprintf("shard-%d", i), ShardOptions{Site: byte(i + 1)})
		if err := m.AddShard(s); err != nil {
			t.Fatal(err)
		}
		shards[s.ID()] = s
	}
	t.Cleanup(func() { _ = m.Close() })
	return m, shards
}

// activateChain places room on its home shard and joins every other
// shard in a fixed order, returning the chain home-first.
func activateChain(t *testing.T, m *RoomManager, shards map[string]*Shard, room string) []*Shard {
	t.Helper()
	home, err := m.HomeShard(room)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ActivateRoom(room, home); err != nil {
		t.Fatal(err)
	}
	chain := []*Shard{shards[home]}
	ids := make([]string, 0, len(shards))
	for id := range shards {
		if id != home {
			ids = append(ids, id)
		}
	}
	// Deterministic join order → deterministic chain.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		if err := m.ActivateRoom(room, id); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, shards[id])
	}
	members := m.RoomMembers(room)
	for i, s := range chain {
		if members[i] != s.ID() {
			t.Fatalf("chain order mismatch: members=%v", members)
		}
		if d := m.CascadeDepth(room, s.ID()); d != i {
			t.Fatalf("cascade depth of %s = %d, want %d", s.ID(), d, i)
		}
	}
	return chain
}

func recvSemantic(t *testing.T, sess *transport.Session, who string) transport.Frame {
	t.Helper()
	for {
		f, err := sess.Recv()
		if err != nil {
			t.Fatalf("%s recv: %v", who, err)
		}
		if f.Type == transport.TypeSemantic {
			return f.Clone()
		}
	}
}

// TestCascadeDepth2ByteIdentity is the regression pin for the trunk's
// no-re-serialization property: a frame delivered through a depth-2
// cascade (home → mid → leaf, two trunk hops) must match direct
// single-relay delivery byte-for-byte — same payload bytes, same
// header identity (type, channel, flags, capture stamp, trace ID, per
// -subscriber sequence) — differing only in per-leg timing stamps and
// the hop records each extra cascade level appends.
func TestCascadeDepth2ByteIdentity(t *testing.T) {
	const room = "holo"
	m, shards := chainCluster(t, 3)
	chain := activateChain(t, m, shards, room)
	home, leaf := chain[0], chain[2]

	pub := dialShard(t, home, room, "pub")
	direct := dialShard(t, home, room, "direct")
	deep := dialShard(t, leaf, room, "deep")

	payload := bytes.Repeat([]byte("hologram"), 512)
	const frames = 12
	for i := 0; i < frames; i++ {
		sender := []obs.Hop{{Kind: obs.HopSender, Site: 9, RecvMicros: uint64(1000 + i)}}
		f := transport.Frame{
			Type: transport.TypeSemantic, Channel: 7, Flags: transport.FlagKeyframe | transport.FlagTrace | transport.FlagHops,
			CaptureTS: uint64(5000 + i), TraceID: uint64(100 + i), Hops: sender, Payload: payload,
		}
		if _, err := pub.SendBatch([]transport.Frame{f}); err != nil {
			t.Fatal(err)
		}
		df := recvSemantic(t, direct, "direct")
		pf := recvSemantic(t, deep, "deep")

		if !bytes.Equal(df.Payload, payload) {
			t.Fatalf("frame %d: direct payload corrupted", i)
		}
		if !bytes.Equal(pf.Payload, df.Payload) {
			t.Fatalf("frame %d: cascaded payload differs from direct delivery", i)
		}
		if pf.Type != df.Type || pf.Channel != df.Channel || pf.Seq != df.Seq ||
			pf.Flags != df.Flags || pf.CaptureTS != df.CaptureTS || pf.TraceID != df.TraceID ||
			pf.Tier != df.Tier || pf.TierCount != df.TierCount {
			t.Fatalf("frame %d: header identity differs:\ndirect   %+v\ncascaded %+v", i, df, pf)
		}
		// Modulo clause: the cascade appends hop records — two extra
		// levels, each stamping ingress + egress. The carried prefix
		// (sender + home ingress) must be shared verbatim.
		if want := len(df.Hops) + 4; len(pf.Hops) != want {
			t.Fatalf("frame %d: cascaded hops = %d, want %d (direct %d + 4)", i, len(pf.Hops), want, len(df.Hops))
		}
		for h := 0; h < 2; h++ {
			if pf.Hops[h].Kind != df.Hops[h].Kind || pf.Hops[h].Site != df.Hops[h].Site {
				t.Fatalf("frame %d hop %d: shared prefix differs: %+v vs %+v", i, h, pf.Hops[h], df.Hops[h])
			}
		}
		// Each cascade level stamps its own site, so the waterfall can
		// attribute trunk dwell per level: home, mid, leaf.
		var sites []byte
		for _, h := range pf.Hops {
			if h.Kind == obs.HopRelayIngress {
				sites = append(sites, h.Site)
			}
		}
		if len(sites) != 3 || sites[0] != chain[0].opt.Site || sites[1] != chain[1].opt.Site || sites[2] != chain[2].opt.Site {
			t.Fatalf("frame %d: cascade ingress sites = %v, want [%d %d %d]",
				i, sites, chain[0].opt.Site, chain[1].opt.Site, chain[2].opt.Site)
		}
	}
}

// TestCascadeDepth3HopCap: a depth-3 cascade walks 9 hop-stamping sites
// (sender + 4×ingress/egress), one past the 8-record trace cap. Per the
// drop-don't-fail policy the overflowing hop is dropped, an
// obs.EvHopDropped flight event records the truncation, and the frame
// still decodes end to end with exactly obs.MaxTraceHops records.
func TestCascadeDepth3HopCap(t *testing.T) {
	const room = "hot"
	m, shards := chainCluster(t, 4)
	chain := activateChain(t, m, shards, room)
	home, leaf := chain[0], chain[3]

	pub := dialShard(t, home, room, "pub")
	deep := dialShard(t, leaf, room, "deep")

	obs.Flight.Reset()
	sender := []obs.Hop{{Kind: obs.HopSender, Site: 9, RecvMicros: 1234}}
	sent := transport.Frame{
		Type: transport.TypeSemantic, Channel: 3, Flags: transport.FlagTrace | transport.FlagHops,
		CaptureTS: 777, TraceID: 4242, Hops: sender, Payload: []byte("deep-frame"),
	}
	if _, err := pub.SendBatch([]transport.Frame{sent}); err != nil {
		t.Fatal(err)
	}
	f := recvSemantic(t, deep, "deep")
	if string(f.Payload) != "deep-frame" || f.TraceID != 4242 {
		t.Fatalf("depth-3 frame corrupted: %+v", f)
	}
	if len(f.Hops) != obs.MaxTraceHops {
		t.Fatalf("depth-3 frame carries %d hops, want the %d-hop cap", len(f.Hops), obs.MaxTraceHops)
	}
	dropped := false
	for _, ev := range obs.Flight.Events() {
		if ev.Kind == obs.EvHopDropped && ev.TraceID == 4242 {
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("no EvHopDropped flight event for the over-cap cascade hop")
	}
}

// TestClusterAdmission exercises both admission axes: MaxRooms refuses
// a shard's N+1th room, MaxSubscribersPerRoom refuses a room's N+1th
// local participant, and both rejections are counted.
func TestClusterAdmission(t *testing.T) {
	s := NewShard("solo", ShardOptions{MaxRooms: 1, MaxSubscribersPerRoom: 2})
	t.Cleanup(func() { _ = s.Close() })

	dialShard(t, s, "roomA", "alice")
	dialShard(t, s, "roomA", "bob")

	// Third subscriber for roomA: over MaxSubscribersPerRoom.
	c, srv := net.Pipe()
	accErr := make(chan error, 1)
	go func() {
		_, _, err := s.Accept(srv)
		accErr <- err
	}()
	if _, _, err := transport.Dial(c, transport.Hello{Peer: "carol", Room: "roomA"}); err == nil {
		// The handshake itself succeeds; the rejection closes the session.
		if err := <-accErr; err == nil {
			t.Fatal("third subscriber admitted past MaxSubscribersPerRoom=2")
		}
	} else {
		<-accErr
	}
	if got := s.rejectedSubs.Load(); got != 1 {
		t.Fatalf("rejected subscriber count = %d, want 1", got)
	}

	// Second room: over MaxRooms.
	c2, srv2 := net.Pipe()
	go func() {
		_, _, err := s.Accept(srv2)
		accErr <- err
	}()
	if _, _, err := transport.Dial(c2, transport.Hello{Peer: "dave", Room: "roomB"}); err == nil {
		if err := <-accErr; err == nil {
			t.Fatal("second room admitted past MaxRooms=1")
		}
	} else {
		<-accErr
	}
	if got := s.rejectedRooms.Load(); got != 1 {
		t.Fatalf("rejected room count = %d, want 1", got)
	}
}
