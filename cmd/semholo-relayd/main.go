// Command semholo-relayd runs one relay shard of a SemHolo cluster: it
// accepts participant sessions over TCP, hosts one SFU relay per active
// room (serialize-once fan-out, per-subscriber egress queues and tier
// selection), and enforces per-shard admission limits. With a static
// shard table (-peers) it also runs in cluster mode: every daemon
// agrees on each room's home shard through the same consistent-hash
// ring, and a shard that admits a participant for a room homed
// elsewhere dials a trunk session to the home shard — the home forwards
// the room's frames over an ordinary egress leg, and this shard
// re-shares them to its local subscribers without re-serializing
// payloads. Daemon-mode trunks form a depth-1 star around the home
// shard; deeper cascade trees are available in-process through
// cluster.RoomManager.
//
// Usage:
//
//	semholo-relayd -listen :9470 -id shard-a
//	semholo-relayd -listen :9471 -id shard-b \
//	    -peers shard-a=127.0.0.1:9470,shard-b=127.0.0.1:9471
//
// Participants join a room by dialing any shard with Hello{Room: ...};
// publishers should dial the room's home shard (the cluster routes
// frames down from there).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"semholo/internal/cluster"
	"semholo/internal/core"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

func main() {
	var (
		listen    = flag.String("listen", ":9470", "address to accept participant and trunk sessions on")
		id        = flag.String("id", "shard-0", "this shard's cluster-wide ID")
		site      = flag.Int("site", 1, "hop-trace site byte stamped on this shard's relay ingress/egress records")
		queue     = flag.Int("queue", 0, "per-leg egress queue depth (0 = relay default)")
		maxRooms  = flag.Int("max-rooms", 0, "admission: max concurrently hosted rooms (0 = unlimited)")
		maxSubs   = flag.Int("max-room-subs", 0, "admission: max local participants per room (0 = unlimited)")
		peers     = flag.String("peers", "", "static shard table id=host:port[,id=host:port...]; enables trunk mode")
		vnodes    = flag.Int("vnodes", 0, "placement-ring virtual nodes per shard (0 = default)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/* and pprof on this address")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	shard := cluster.NewShard(*id, cluster.ShardOptions{
		Site:                  byte(*site),
		QueueDepth:            *queue,
		MaxRooms:              *maxRooms,
		MaxSubscribersPerRoom: *maxSubs,
		Registry:              reg,
	})

	var trunks *trunkSet
	if *peers != "" {
		table, err := parsePeers(*peers)
		if err != nil {
			log.Fatalf("-peers: %v", err)
		}
		if _, ok := table[*id]; !ok {
			log.Fatalf("-peers table does not list this shard (%q)", *id)
		}
		// Every daemon builds the identical ring from the identical
		// table, so all shards agree on each room's home without any
		// coordination traffic.
		ring := cluster.NewRing(*vnodes)
		for peerID := range table {
			ring.AddShard(peerID)
		}
		trunks = &trunkSet{self: *id, shard: shard, ring: ring, table: table, rooms: map[string]bool{}}
		log.Printf("cluster mode: %d shards, home lookup via %d-vnode ring", len(table), *vnodes)
	}

	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg, nil)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s/metrics", srv.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	log.Printf("shard %s listening on %s", *id, ln.Addr())
	go func() {
		<-ctx.Done()
		_ = ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			log.Printf("accept: %v", err)
			continue
		}
		go func(conn net.Conn) {
			room, peer, err := shard.Accept(conn)
			if err != nil {
				log.Printf("join refused (room %q, peer %q): %v", room, peer, err)
				return
			}
			log.Printf("attached %q to room %q", peer, room)
			if trunks != nil && !strings.HasPrefix(peer, cluster.TrunkPeerPrefix) {
				trunks.ensure(ctx, room)
			}
		}(conn)
	}

	if err := shard.Close(); err != nil {
		log.Printf("shard close: %v", err)
	}
}

// parsePeers parses "id=host:port,id=host:port" into a shard table.
func parsePeers(arg string) (map[string]string, error) {
	table := map[string]string{}
	for _, tok := range strings.Split(arg, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad entry %q (want id=host:port)", tok)
		}
		if _, dup := table[id]; dup {
			return nil, fmt.Errorf("duplicate shard %q", id)
		}
		table[id] = addr
	}
	return table, nil
}

// trunkSet tracks which foreign-homed rooms this shard has a trunk for
// and dials missing ones: the local relay attaches the home shard as a
// trunk-ingress peer, so frames arriving down the trunk re-share to
// local subscribers via payload adoption.
type trunkSet struct {
	self  string
	shard *cluster.Shard
	ring  *cluster.Ring
	table map[string]string

	mu    sync.Mutex
	rooms map[string]bool // rooms with a live (or in-flight) trunk
}

// ensure dials the trunk for a foreign-homed room once. On failure the
// claim is dropped so the next local join retries.
func (t *trunkSet) ensure(ctx context.Context, room string) {
	home := t.ring.Lookup(room)
	if home == "" || home == t.self {
		return
	}
	t.mu.Lock()
	if t.rooms[room] {
		t.mu.Unlock()
		return
	}
	t.rooms[room] = true
	t.mu.Unlock()

	if err := t.dial(ctx, room, home); err != nil {
		log.Printf("trunk %s→%s for room %q: %v", home, t.self, room, err)
		t.mu.Lock()
		delete(t.rooms, room)
		t.mu.Unlock()
	}
}

func (t *trunkSet) dial(ctx context.Context, room, home string) error {
	relay := t.shard.Relay(room)
	if relay == nil {
		return fmt.Errorf("room has no local relay")
	}
	conn, err := net.Dial("tcp", t.table[home])
	if err != nil {
		return err
	}
	sess, _, err := transport.DialContext(ctx, conn, transport.Hello{
		Peer: cluster.TrunkPeerPrefix + t.self,
		Room: room,
	})
	if err != nil {
		_ = conn.Close()
		return err
	}
	if _, err := relay.AttachPeer(cluster.TrunkPeerPrefix+home, sess, core.AttachOptions{TrunkIngress: true}); err != nil {
		_ = sess.Close()
		return err
	}
	log.Printf("trunk up: room %q home %s → local subscribers", room, home)
	return nil
}
