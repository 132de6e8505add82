// Remote collaboration: two sites stream to each other simultaneously
// (full duplex) over an emulated WAN, the use case the paper's
// introduction motivates (e.g., Loki-style remote instruction [90]).
// Each direction uses keypoint semantics; the example measures per-site
// wire usage, frame delivery rate, and end-to-end pipeline timing, and
// shows that both directions comfortably fit the paper's 25 Mbps
// broadband budget with headroom for dozens of participants. Each site
// runs its send and receive pipelines under one lifecycle group — six
// stages per site overlapping on a single session — and the group
// propagates the first failure instead of crashing mid-flight.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"semholo"
	"semholo/internal/body"
	"semholo/internal/transport"
)

const frames = 60

type site struct {
	name  string
	world *semholo.World
	enc   semholo.Encoder
	pm    *semholo.PipelineMetrics
}

func newSite(name string, motion body.Motion, seed int64) *site {
	world := semholo.NewWorld(semholo.WorldOptions{Motion: motion, Seed: seed})
	enc, _ := semholo.NewKeypointPipeline(world, semholo.KeypointOptions{})
	return &site{name: name, world: world, enc: enc, pm: semholo.NewPipelineMetrics(semholo.NewRegistry())}
}

func main() {
	instructor := newSite("instructor", body.Talking(nil), 11)
	trainee := newSite("trainee", body.Waving(nil), 12)

	// One emulated broadband link; both directions are shaped.
	a, b, link := semholo.EmulatedLink(semholo.BroadbandUS(13))
	defer link.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	results := make(chan string, 4)
	wg.Add(2)
	go run(ctx, &wg, results, instructor, func() (*semholo.Session, error) {
		s, _, err := semholo.ConnectContext(ctx, a, semholo.Hello{Peer: instructor.name, Mode: "keypoint"})
		return s, err
	})
	go run(ctx, &wg, results, trainee, func() (*semholo.Session, error) {
		s, _, err := semholo.ServeContext(ctx, b, semholo.Hello{Peer: trainee.name, Mode: "keypoint"})
		return s, err
	})
	wg.Wait()
	close(results)
	for line := range results {
		fmt.Println(line)
	}

	relayBroadcast()
	sharedService()
}

// relayBroadcast is the multi-party act: one presenter streaming through
// the SFU relay to four viewers, one of them on a congested link. The
// serialize-once fan-out encodes each wire frame once for all viewers,
// and the congested viewer sheds frames in its own egress queue instead
// of head-of-line-blocking the other three.
func relayBroadcast() {
	fmt.Println()
	fmt.Println("--- relay broadcast: one presenter, four viewers ---")
	reg := semholo.NewRegistry()
	relay := semholo.NewRelayOpts(context.Background(), semholo.RelayOptions{QueueDepth: 8, Registry: reg})

	var links []*semholo.Link
	dial := func(name string, cfg semholo.LinkConfig) *semholo.Session {
		a, b, link := semholo.EmulatedLink(cfg)
		links = append(links, link)
		go func() {
			s, _, err := semholo.Serve(b, semholo.Hello{Peer: "relay"})
			if err != nil {
				log.Fatalf("relay accept %s: %v", name, err)
			}
			if _, err := relay.Attach(name, s); err != nil {
				log.Fatalf("relay attach %s: %v", name, err)
			}
		}()
		sess, _, err := semholo.Connect(a, semholo.Hello{Peer: name, Mode: "keypoint"})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return sess
	}

	presenter := dial("presenter", semholo.LinkConfig{})
	viewers := map[string]*semholo.Session{
		"viewer-1":         dial("viewer-1", semholo.LinkConfig{}),
		"viewer-2":         dial("viewer-2", semholo.LinkConfig{}),
		"viewer-3":         dial("viewer-3", semholo.LinkConfig{}),
		"viewer-congested": dial("viewer-congested", semholo.LinkConfig{Bandwidth: 200e3, Delay: 40 * time.Millisecond}),
	}

	const broadcastFrames = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	received := map[string]int{}
	for name, sess := range viewers {
		wg.Add(1)
		go func(name string, sess *semholo.Session) {
			defer wg.Done()
			for {
				f, err := sess.Recv()
				if err != nil {
					return
				}
				if f.Type == semholo.FrameTypeSemantic {
					mu.Lock()
					received[name]++
					mu.Unlock()
				}
			}
		}(name, sess)
	}

	world := semholo.NewWorld(semholo.WorldOptions{Motion: body.Talking(nil), Seed: 21})
	enc, _ := semholo.NewKeypointPipeline(world, semholo.KeypointOptions{Resolution: 40})
	start := time.Now()
	var batch []semholo.WireFrame
	for i := 0; i < broadcastFrames; i++ {
		ef, err := enc.Encode(world.FrameAt(i))
		if err != nil {
			log.Fatalf("encode: %v", err)
		}
		// Every channel of the media frame leaves in one traced batch.
		captured := semholo.NowMicros()
		batch = batch[:0]
		for _, ch := range ef.Channels {
			batch = append(batch, semholo.WireFrame{
				Type: semholo.FrameTypeSemantic, Channel: ch.Channel, Flags: ch.Flags | transport.FlagTrace,
				CaptureTS: captured, TraceID: uint64(i), Payload: ch.Payload,
			})
		}
		if _, err := presenter.SendBatch(batch); err != nil {
			log.Fatalf("send: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give egress a moment to drain, then hang up; viewers' Recv loops
	// end when the relay closes their sessions.
	time.Sleep(200 * time.Millisecond)
	stats := relay.PeerStats()
	if err := relay.Close(); err != nil {
		log.Fatalf("relay close: %v", err)
	}
	wg.Wait()
	for _, l := range links {
		l.Close()
	}
	elapsed := time.Since(start).Seconds()

	fmt.Printf("presenter broadcast %d frames to %d viewers in %.1fs (encoded once per frame, fan-out %d deliveries)\n",
		broadcastFrames, len(viewers), elapsed, relay.IngressFrames()*uint64(len(viewers)))
	for _, s := range stats {
		if s.Name == "presenter" {
			continue
		}
		mu.Lock()
		got := received[s.Name]
		mu.Unlock()
		fmt.Printf("  %-17s delivered %3d wire frames (%d received), dropped %d at the egress queue\n",
			s.Name, s.Delivered, got, s.Dropped)
	}
}

// sharedService is the multi-tenant act: four senders stream into one
// reconstruction process through a shared DecodeService — one worker
// pool, one pose-keyed mesh cache, per-tenant admission. Two of the
// participants replay the same capture (a shared recording, or twin
// sensors in one room), so their pose streams are bitwise identical
// and the second stream decodes almost entirely from the first one's
// cache entries — the cross-tenant dedup the service exists for.
func sharedService() {
	fmt.Println()
	fmt.Println("--- shared decode service: four senders, one reconstruction process ---")
	reg := semholo.NewRegistry()
	world := semholo.NewWorld(semholo.WorldOptions{})
	svc := semholo.NewDecodeService(semholo.ServiceOptions{
		Model:      world.Model,
		Resolution: 40,
		Registry:   reg,
	})
	defer svc.Close()

	type participant struct {
		name   string
		motion body.Motion
		seed   int64
	}
	parts := []participant{
		{"alice", body.Talking(nil), 31}, // alice and bob replay the same
		{"bob", body.Talking(nil), 31},   // capture: correlated pose streams
		{"carol", body.Waving(nil), 32},
		{"dave", body.Talking(nil), 33},
	}

	const serviceFrames = 30
	ctx := context.Background()
	var wg sync.WaitGroup
	decoded := make([]int, len(parts))
	for i, p := range parts {
		a, b, link := semholo.EmulatedLink(semholo.LinkConfig{})
		defer link.Close()

		// Sender side: a full client site with its own world and encoder.
		go func(p participant) {
			pw := semholo.NewWorld(semholo.WorldOptions{Motion: p.motion, Seed: p.seed})
			enc, _ := semholo.NewKeypointPipeline(pw, semholo.KeypointOptions{Resolution: 40})
			sess, _, err := semholo.ConnectContext(ctx, a, semholo.Hello{Peer: p.name, Mode: "keypoint"})
			if err != nil {
				log.Fatalf("%s connect: %v", p.name, err)
			}
			sender := &semholo.Sender{Session: sess, Encoder: enc}
			if _, err := semholo.RunSenderPipeline(ctx, sender, func(i int) (semholo.Capture, bool) {
				return pw.FrameAt(i), true
			}, semholo.PipelineSenderOptions{Frames: serviceFrames, Lossless: true}); err != nil {
				log.Fatalf("%s send: %v", p.name, err)
			}
			sess.Close()
		}(p)

		// Service side: admit the session as one tenant of the shared pool.
		sess, _, err := semholo.ServeContext(ctx, b, semholo.Hello{Peer: "service", Mode: "keypoint"})
		if err != nil {
			log.Fatalf("%s handshake: %v", p.name, err)
		}
		st, err := svc.Admit(p.name)
		if err != nil {
			log.Fatalf("admit %s: %v", p.name, err)
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			defer svc.Detach(name)
			stats, err := semholo.RunReceiverPipeline(ctx, &semholo.Receiver{Session: sess}, st, nil,
				semholo.PipelineReceiverOptions{Lossless: true})
			if err != nil {
				log.Fatalf("tenant %s: %v", name, err)
			}
			decoded[i] = stats.Decoded
		}(i, p.name)
	}
	wg.Wait()

	snap := svc.Counters().Snapshot()
	for i, p := range parts {
		fmt.Printf("  %-6s decoded %d frames through the shared service\n", p.name, decoded[i])
	}
	fmt.Printf("shared mesh cache: %.0f%% hit rate, %d cross-tenant hits (bob rode alice's reconstructions)\n",
		100*snap.HitRate(), snap.CrossTenantHits)
}

// run drives one site: staged send and receive pipelines sharing the
// session under one lifecycle group, as a real full-duplex client would.
// The site decodes its peer's stream in a one-tenant decode service.
func run(ctx context.Context, wg *sync.WaitGroup, results chan<- string, s *site, connect func() (*semholo.Session, error)) {
	defer wg.Done()
	sess, err := connect()
	if err != nil {
		log.Fatalf("%s: %v", s.name, err)
	}
	svc := semholo.NewDecodeService(semholo.ServiceOptions{Model: s.world.Model, Resolution: 40})
	defer svc.Close()
	tenant, err := svc.Admit(s.name)
	if err != nil {
		log.Fatalf("%s: %v", s.name, err)
	}
	sender := &semholo.Sender{Session: sess, Encoder: s.enc, Obs: s.pm}
	receiver := &semholo.Receiver{Session: sess}

	// Lossless queues: a collaboration replay wants every frame, and the
	// bounded Frames count ends both pipelines without a session close.
	g, _ := semholo.NewPipelineGroup(ctx)
	var got int
	g.Go(func(ctx context.Context) error {
		stats, err := semholo.RunReceiverPipeline(ctx, receiver, tenant, func(semholo.FrameData) error {
			return nil
		}, semholo.PipelineReceiverOptions{Frames: frames, Lossless: true, Metrics: s.pm})
		got = stats.Rendered
		return err
	})
	start := time.Now()
	g.Go(func(ctx context.Context) error {
		_, err := semholo.RunSenderPipeline(ctx, sender, func(i int) (semholo.Capture, bool) {
			return s.world.FrameAt(i), true
		}, semholo.PipelineSenderOptions{Frames: frames, Lossless: true})
		return err
	})
	if err := g.Wait(); err != nil {
		log.Fatalf("%s: %v", s.name, err)
	}
	elapsed := time.Since(start).Seconds()
	st := sess.Stats()
	sent, recv := st.BytesSent, st.BytesReceived
	results <- fmt.Sprintf(
		"%s: sent %d frames (%.1f KB, %.2f Mbps), received %d frames (%.1f KB) in %.1fs",
		s.name, frames, float64(sent)/1024, float64(sent)*8/elapsed/1e6,
		got, float64(recv)/1024, elapsed)
	results <- s.name + " pipeline timing:\n" + s.pm.Report().String()
}
