package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"semholo/internal/avatar"
	"semholo/internal/cluster"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/core"
	"semholo/internal/gaze"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/metrics"
	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/service"
	"semholo/internal/transport"
)

// Hop-record site bytes. Spans are classified by hop order, not by
// site (placement decides which shard is a room's home); the bytes only
// make a dumped waterfall readable.
const (
	siteSender  byte = 1
	siteHome    byte = 2 // plain relay, lone shard, shard s0
	siteLeaf    byte = 3 // shard s1
	siteService byte = 4
)

// The viewer's gaze, fixed for the run: the foveated rung's encoder and
// every hybrid decoder agree on it, as a live session's gaze reports
// would make them.
var (
	fovealSelector = gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	gazeAnchor     = geom.V3(0, 1.5, 0.1)
)

// publisher is one sending site: a session to its room's home relay and
// the encoder state that feeds it.
type publisher struct {
	idx    int
	room   string
	sess   *transport.Session
	link   *netsim.Link
	sender *core.Sender
	// ladder is nil on staged workloads, where sender.Encoder is set.
	ladder     *core.TierLadder
	kfRequests atomic.Int64
}

// leg is one attached subscriber.
type leg struct {
	spec *legSpec
	name string
	sess *transport.Session
	link *netsim.Link
	rcv  *core.Receiver
	// tenant is the leg's stream in the DecodeService (decode legs only).
	tenant *service.StreamCtx
}

// fabric is whatever sits between publishers and subscribers: plain
// relays, one shard, or a two-shard cascade.
type fabric struct {
	// accept runs the relay side of a handshake on conn and attaches the
	// peer to room on the given shard position (0 home, 1 leaf).
	accept func(shard int, room string, conn net.Conn) error
	// relay returns the room's relay at a shard position (nil if none).
	relay func(shard int, room string) *core.Relay
	// trunkPeer names the leaf's trunk-egress peer on the home relay (nil
	// without a cascade, where no leg sits at shard position 1).
	trunkPeer func(room string) string
	close     func()
}

// topology is one wired workload, ready to run.
type topology struct {
	spec   *workloadSpec
	corpus *corpus
	fab    fabric
	pubs   []*publisher
	legs   []*leg
	svc    *service.DecodeService

	// drains are the publishers' inbound loops (pongs, keyframe requests).
	drains sync.WaitGroup
}

func keypointEncoder(c *corpus) *core.KeypointEncoder {
	return &core.KeypointEncoder{
		Model:    c.model,
		Detector: keypoint.NewDetector(keypoint.DefaultDetector()),
		Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
		Codec:    compress.LZR(),
	}
}

func semanticLadder(c *corpus) (*core.TierLadder, error) {
	hybrid := &core.HybridEncoder{
		Keypoint:    keypointEncoder(c),
		Selector:    fovealSelector,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	hybrid.SetGazeAnchor(gazeAnchor)
	return core.NewSemanticLadder(keypointEncoder(c), hybrid, ladderBitrates)
}

// newFabric builds the relay layer the spec asks for.
func newFabric(spec *workloadSpec, rooms []string, levels []transport.RateLevel, seed int64) (fabric, error) {
	switch spec.Shards {
	case 0:
		relays := map[string]*core.Relay{}
		for _, room := range rooms {
			relays[room] = core.NewRelayOpts(context.Background(), core.RelayOptions{
				Site: siteHome, Room: room, TierLevels: levels,
			})
		}
		return fabric{
			accept: func(_ int, room string, conn net.Conn) error {
				sess, hello, err := transport.Accept(conn, transport.Hello{Peer: "relay"})
				if err != nil {
					return err
				}
				_, err = relays[room].Attach(hello.Peer, sess)
				return err
			},
			relay: func(_ int, room string) *core.Relay { return relays[room] },
			close: func() {
				for _, r := range relays {
					_ = r.Close()
				}
			},
		}, nil
	case 1:
		shard := cluster.NewShard("s0", cluster.ShardOptions{Site: siteHome, TierLevels: levels})
		return fabric{
			accept: func(_ int, _ string, conn net.Conn) error {
				_, _, err := shard.Accept(conn)
				return err
			},
			relay: func(_ int, room string) *core.Relay { return shard.Relay(room) },
			close: func() { _ = shard.Close() },
		}, nil
	case 2:
		mesh := netsim.NewMesh(spec.Trunk, seed)
		mgr := cluster.NewRoomManager(cluster.ManagerOptions{
			TrunkDial: func(parentID, childID, _ string) (net.Conn, net.Conn, func(), error) {
				parentEnd, childEnd, link := mesh.Dial(parentID, childID)
				return childEnd, parentEnd, link.Close, nil
			},
		})
		shards := map[string]*cluster.Shard{}
		for i, id := range []string{"s0", "s1"} {
			s := cluster.NewShard(id, cluster.ShardOptions{Site: []byte{siteHome, siteLeaf}[i], TierLevels: levels})
			if err := mgr.AddShard(s); err != nil {
				return fabric{}, err
			}
			shards[id] = s
		}
		// Placement picks each room's home; the other shard joins the
		// room's cascade when its first subscriber attaches, after the
		// publisher has taken channel block 0 on the home relay.
		order := map[string][2]string{}
		for _, room := range rooms {
			home, err := mgr.HomeShard(room)
			if err != nil {
				return fabric{}, err
			}
			leaf := "s1"
			if home == "s1" {
				leaf = "s0"
			}
			order[room] = [2]string{home, leaf}
		}
		return fabric{
			accept: func(shard int, room string, conn net.Conn) error {
				_, _, err := shards[order[room][shard]].Accept(conn)
				return err
			},
			relay: func(shard int, room string) *core.Relay {
				return shards[order[room][shard]].Relay(room)
			},
			trunkPeer: func(room string) string { return cluster.TrunkPeerPrefix + order[room][1] },
			close: func() {
				_ = mgr.Close()
				mesh.Close()
			},
		}, nil
	}
	return fabric{}, fmt.Errorf("bench: workload %s: unsupported shard count %d", spec.Name, spec.Shards)
}

// dial connects one peer to the fabric over a fresh emulated link
// (up: peer→relay, down: relay→peer) and returns once it is attached.
func (t *topology) dial(shard int, room, peer string, up, down netsim.LinkConfig) (*transport.Session, *netsim.Link, error) {
	local, remote, link := netsim.AsymmetricPipe(up, down)
	accepted := make(chan error, 1)
	go func() { accepted <- t.fab.accept(shard, room, remote) }()
	sess, _, err := transport.Dial(local, transport.Hello{Peer: peer, Room: room})
	if aerr := <-accepted; err == nil {
		err = aerr
	}
	if err != nil {
		link.Close()
		return nil, nil, fmt.Errorf("bench: attach %s to %s: %w", peer, room, err)
	}
	return sess, link, nil
}

// buildTopology wires publishers, the relay fabric, the decode service
// and every subscriber leg of spec. Link seeds derive from seed in
// wiring order, so one seed reproduces every link's jitter stream.
func buildTopology(spec *workloadSpec, c *corpus, seed int64) (*topology, error) {
	t := &topology{spec: spec, corpus: c}
	nextSeed := seed * 7919
	seeded := func(cfg netsim.LinkConfig) netsim.LinkConfig {
		nextSeed++
		cfg.Seed = nextSeed
		return cfg
	}

	rooms := make([]string, spec.Publishers)
	for p := range rooms {
		rooms[p] = fmt.Sprintf("room-%d", p)
	}
	var ladders []*core.TierLadder
	var levels []transport.RateLevel
	if spec.Ladder {
		for range rooms {
			l, err := semanticLadder(c)
			if err != nil {
				return nil, err
			}
			ladders = append(ladders, l)
		}
		levels = ladders[0].Levels()
	}
	fab, err := newFabric(spec, rooms, levels, seed)
	if err != nil {
		return nil, err
	}
	t.fab = fab

	// Publishers attach first: channel block 0 keeps every subscriber's
	// channels un-shifted, so plain decoders read them directly.
	for p, room := range rooms {
		uplink := seeded(spec.Uplink)
		sess, link, err := t.dial(0, room, fmt.Sprintf("pub-%d", p), uplink, uplink)
		if err != nil {
			t.close()
			return nil, err
		}
		pub := &publisher{idx: p, room: room, sess: sess, link: link}
		// Obs makes the sender stamp capture time, trace ID and its hop
		// record on every wire frame — the deployed -debug-addr
		// configuration, and the only frame identity that survives the
		// relay's per-leg re-sequencing and shedding.
		pub.sender = &core.Sender{
			Session: sess,
			Obs:     obs.NewPipelineMetrics(obs.NewRegistry()),
			Site:    siteSender,
		}
		if spec.Ladder {
			pub.ladder = ladders[p]
			pub.sender.OnKeyframeRequest = func(tier int) {
				pub.kfRequests.Add(1)
				pub.ladder.RequestKeyframe(tier)
			}
		} else {
			pub.sender.Encoder = keypointEncoder(c)
		}
		t.pubs = append(t.pubs, pub)
		t.drains.Add(1)
		go func() {
			defer t.drains.Done()
			for {
				f, err := sess.Recv()
				if err != nil {
					return
				}
				if f.Type == transport.TypeControl {
					_ = pub.sender.HandleControl(f) // a malformed request is the relay's bug, not a frame failure
				}
			}
		}()
	}

	t.svc = newDecodeService(spec, c)
	for i := range spec.Legs {
		ls := &spec.Legs[i]
		for k := 0; k < max(ls.Count, 1); k++ {
			name := ls.Name
			if ls.Count > 1 {
				name = fmt.Sprintf("%s-%03d", ls.Name, k)
			}
			sess, link, err := t.dial(ls.Shard, rooms[ls.Pub], name, netsim.LinkConfig{}, seeded(ls.Down))
			if err != nil {
				t.close()
				return nil, err
			}
			l := &leg{spec: ls, name: name, sess: sess, link: link, rcv: &core.Receiver{Session: sess}}
			if ls.Kind == legDecode {
				if l.tenant, err = t.svc.Admit(name); err != nil {
					t.legs = append(t.legs, l)
					t.close()
					return nil, err
				}
			}
			t.legs = append(t.legs, l)
		}
	}
	return t, nil
}

// newDecodeService builds the receiving site: one DecodeService whose
// tenants are the workload's decode legs. Ladder workloads decode
// whichever rung arrives (keypoint rungs and the foveated hybrid);
// single-rung workloads use the service's default keypoint decoder.
func newDecodeService(spec *workloadSpec, c *corpus) *service.DecodeService {
	opt := service.Options{
		Model:      c.model,
		Resolution: spec.DecodeRes,
		WarmStart:  true,
		Cache:      &avatar.MeshCache{},
		Counters:   &metrics.ReconCounters{},
		FieldStats: &metrics.FieldCounters{},
		Site:       siteService,
	}
	if spec.Ladder {
		opt.NewDecoder = func(o service.Options) core.Decoder {
			hy := &core.HybridDecoder{
				Model: o.Model, Codec: o.Codec, PeripheralResolution: o.Resolution,
				Selector: fovealSelector, WarmStart: o.WarmStart,
				Cache: o.Cache, Counters: o.Counters, FieldStats: o.FieldStats,
			}
			hy.SetGazeAnchor(gazeAnchor)
			return &core.AdaptiveDecoder{
				Keypoint: &core.KeypointDecoder{
					Model: o.Model, Codec: o.Codec, Resolution: o.Resolution, WarmStart: o.WarmStart,
					Cache: o.Cache, Counters: o.Counters, FieldStats: o.FieldStats,
				},
				Hybrid: hy,
			}
		}
	}
	return service.New(opt)
}

// peerStats returns the relay-side delivery counters of a leg, plus
// those of the trunk leg feeding its shard when it sits behind one.
func (t *topology) peerStats(l *leg) (own, trunk core.RelayPeerStats) {
	room := t.pubs[l.spec.Pub].room
	find := func(r *core.Relay, name string) core.RelayPeerStats {
		if r != nil {
			for _, s := range r.PeerStats() {
				if s.Name == name {
					return s
				}
			}
		}
		return core.RelayPeerStats{}
	}
	own = find(t.fab.relay(l.spec.Shard, room), l.name)
	if l.spec.Shard > 0 && t.fab.trunkPeer != nil {
		trunk = find(t.fab.relay(0, room), t.fab.trunkPeer(room))
	}
	return own, trunk
}

// close tears the topology down: publishers stop feeding, the fabric
// joins its pumps, every link and session closes, and the publishers'
// drain loops are joined. Subscriber loops (owned by the run) see their
// sessions end.
func (t *topology) close() {
	for _, p := range t.pubs {
		_ = p.sess.Close()
	}
	if t.fab.close != nil {
		t.fab.close()
	}
	for _, l := range t.legs {
		_ = l.sess.Close()
		l.link.Close()
	}
	for _, p := range t.pubs {
		p.link.Close()
	}
	if t.svc != nil {
		t.svc.Close()
	}
	t.drains.Wait()
}
