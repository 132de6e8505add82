// Command semholo-sender is a standalone telepresence sender: it
// simulates a capture site (parametric human + RGB-D rig), encodes each
// frame with the selected semantics, and streams it to a semholo-receiver
// over TCP. It runs the staged pipeline runtime — capture, encode, and
// send overlap in separate goroutines connected by latest-frame-wins
// queues — so a slow encode or a congested link can never stall the
// capture clock. Ctrl-C shuts the pipeline down gracefully.
//
// Usage:
//
//	semholo-receiver -listen :7843 &
//	semholo-sender -addr 127.0.0.1:7843 -mode keypoint -frames 300
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"syscall"
	"time"

	"semholo"
	"semholo/internal/body"
	"semholo/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7843", "receiver address")
		mode      = flag.String("mode", "keypoint", "semantics: keypoint|traditional|text")
		frames    = flag.Int("frames", 120, "frames to stream")
		fps       = flag.Float64("fps", 30, "capture rate")
		motion    = flag.String("motion", "talking", "workload: talking|walking|waving")
		name      = flag.String("name", "site-A", "participant name")
		queue     = flag.Int("queue", 1, "staged runtime: per-stage queue depth")
		lossless  = flag.Bool("lossless", false, "staged runtime: block instead of dropping stale frames")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/* and pprof on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var mo body.Motion
	switch *motion {
	case "talking":
		mo = body.Talking(nil)
	case "walking":
		mo = body.Walking(nil)
	case "waving":
		mo = body.Waving(nil)
	default:
		log.Fatalf("unknown motion %q", *motion)
	}
	world := semholo.NewWorld(semholo.WorldOptions{FPS: *fps, Motion: mo})

	var enc semholo.Encoder
	switch *mode {
	case "keypoint":
		enc, _ = semholo.NewKeypointPipeline(world, semholo.KeypointOptions{})
	case "traditional":
		enc, _ = semholo.NewTraditionalPipeline()
	case "text":
		enc, _ = semholo.NewTextPipeline(semholo.TextOptions{})
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	// The session shares the signal context: Ctrl-C unblocks any
	// in-flight write and tears the connection down.
	sess, peer, err := semholo.ConnectContext(ctx, conn, semholo.Hello{Peer: *name, Mode: *mode, FPS: *fps})
	if err != nil {
		log.Fatalf("handshake: %v", err)
	}
	log.Printf("connected to %s", peer.Peer)

	// Observability: every telemetry source registers into one registry;
	// sender frames carry the capture-timestamp trace extension so the
	// receiver can compute cross-site motion-to-photon latency.
	reg := obs.NewRegistry()
	pm := obs.NewPipelineMetrics(reg)
	sess.Instrument(reg, "sender")
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg, map[string]func() any{
			"budget": func() any { return pm.Report() },
		})
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s/metrics", srv.Addr())
	}
	sender := &semholo.Sender{Session: sess, Encoder: enc, Obs: pm}
	interval := time.Duration(float64(time.Second) / *fps)

	start := time.Now()
	stats, err := semholo.RunSenderPipeline(ctx, sender, func(i int) (semholo.Capture, bool) {
		return world.FrameAt(i), true
	}, semholo.PipelineSenderOptions{
		Frames:     *frames,
		Interval:   interval,
		QueueDepth: *queue,
		Lossless:   *lossless,
		Registry:   reg,
	})
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	log.Printf("staged: captured %d, encoded %d, sent %d, dropped %d stale",
		stats.Captured, stats.Encoded, stats.Sent, stats.Dropped)
	st := sess.Stats()
	sent, nframes := st.BytesSent, st.FramesSent
	elapsed := time.Since(start).Seconds()
	fmt.Printf("streamed %d media frames (%d wire frames, %.2f MB) in %.1fs — %.2f Mbps\n",
		stats.Sent, nframes, float64(sent)/1e6, elapsed, float64(sent)*8/elapsed/1e6)
	fmt.Print(pm.Report())
	if err := sess.Close(); err != nil && ctx.Err() == nil {
		log.Printf("close: %v", err)
	}
}
