// Command semholo-receiver is a standalone telepresence receiver: it
// accepts a semholo-sender session over TCP, reconstructs every media
// frame with the selected semantics, and reports throughput, decode
// timing, and reconstruction statistics. Reconstructions can optionally
// be dumped as OBJ files for inspection. It runs the staged pipeline
// runtime — recv, decode, and render overlap in separate goroutines
// connected by latest-frame-wins queues, so a slow reconstruction drops
// stale frames instead of building backlog. Ctrl-C shuts the pipeline
// down gracefully.
//
// Usage:
//
//	semholo-receiver -listen :7843 -mode keypoint -dump /tmp/frames
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"semholo"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/obs"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7843", "listen address")
		mode      = flag.String("mode", "keypoint", "semantics: keypoint|traditional|text")
		res       = flag.Int("res", 64, "keypoint reconstruction resolution")
		dump      = flag.String("dump", "", "directory to dump OBJ reconstructions (every 30th frame)")
		name      = flag.String("name", "site-B", "participant name")
		queue     = flag.Int("queue", 1, "staged runtime: per-stage queue depth")
		lossless  = flag.Bool("lossless", false, "staged runtime: block instead of dropping stale frames")
		tenants   = flag.Int("tenants", 0, "accept this many sender sessions and decode them all through one shared DecodeService (keypoint mode only; 0 = single-session receiver)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/* and pprof on this address (e.g. 127.0.0.1:6061)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Observability: the receiver is where cross-site spans land — the
	// trace extension on arriving frames yields network and end-to-end
	// motion-to-photon latency against the 100 ms budget.
	reg := obs.NewRegistry()
	pm := obs.NewPipelineMetrics(reg)
	var recon metrics.ReconCounters
	var field metrics.FieldCounters
	metrics.RegisterAll(reg, &recon, &field)

	world := semholo.NewWorld(semholo.WorldOptions{})
	var dec semholo.Decoder
	switch *mode {
	case "keypoint":
		_, kd := semholo.NewKeypointPipeline(world, semholo.KeypointOptions{Resolution: *res})
		kd.Counters = &recon
		kd.FieldStats = &field
		kd.Obs = pm
		dec = kd
	case "traditional":
		_, dec = semholo.NewTraditionalPipeline()
	case "text":
		_, dec = semholo.NewTextPipeline(semholo.TextOptions{})
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	log.Printf("listening on %s (%s mode)", ln.Addr(), *mode)

	if *tenants > 0 {
		if *mode != "keypoint" {
			log.Fatalf("-tenants requires -mode keypoint (got %q)", *mode)
		}
		runMultiTenant(ctx, ln, reg, world, *name, *tenants, *res, *debugAddr)
		return
	}
	conn, err := ln.Accept()
	if err != nil {
		log.Fatalf("accept: %v", err)
	}
	// The session shares the signal context: Ctrl-C unblocks the wire
	// read and tears the connection down.
	sess, peer, err := semholo.ServeContext(ctx, conn, semholo.Hello{Peer: *name, Mode: *mode})
	if err != nil {
		log.Fatalf("handshake: %v", err)
	}
	log.Printf("session with %s (%s @ %.0f fps)", peer.Peer, peer.Mode, peer.FPS)

	sess.Instrument(reg, "receiver")
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
	receiver := &semholo.Receiver{Session: sess, Decoder: dec, Obs: pm}
	start := time.Now()
	frames := 0
	stats, err := semholo.RunReceiverPipeline(ctx, receiver, func(data semholo.FrameData) error {
		frames++
		if frames%30 == 0 {
			describe(frames, data)
			if *dump != "" && data.Mesh != nil {
				dumpOBJ(*dump, frames, data.Mesh)
			}
		}
		return nil
	}, semholo.PipelineReceiverOptions{
		QueueDepth: *queue,
		Lossless:   *lossless,
		Registry:   reg,
	})
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	log.Printf("staged: received %d, decoded %d, rendered %d, dropped %d stale",
		stats.Received, stats.Decoded, stats.Rendered, stats.Dropped)
	elapsed := time.Since(start).Seconds()
	recv := sess.Stats().BytesReceived
	fmt.Printf("received %d media frames (%.2f MB) in %.1fs — %.2f Mbps\n",
		frames, float64(recv)/1e6, elapsed, float64(recv)*8/elapsed/1e6)
	fmt.Print(pm.Report())
}

// runMultiTenant accepts n sender sessions and decodes all of them in
// one process through a shared DecodeService: one worker pool, one
// pose-keyed mesh cache, per-tenant queue/latency metrics on reg.
func runMultiTenant(ctx context.Context, ln net.Listener, reg *obs.Registry, world *semholo.World, name string, n, res int, debugAddr string) {
	svc := semholo.NewDecodeService(semholo.ServiceOptions{
		Model:      world.Model,
		Resolution: res,
		WarmStart:  true,
		Registry:   reg,
	})
	defer svc.Close()
	if debugAddr != "" {
		srv, err := obs.Serve(debugAddr, reg, nil)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s/metrics", srv.Addr())
	}

	log.Printf("decode service up: pool capacity %d, waiting for %d tenants", svc.Pool().Capacity(), n)
	var wg sync.WaitGroup
	start := time.Now()
	var decoded atomic.Int64
	for i := 0; i < n; i++ {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("accept tenant %d: %v", i, err)
		}
		sess, peer, err := semholo.ServeContext(ctx, conn, semholo.Hello{Peer: name, Mode: "keypoint"})
		if err != nil {
			log.Fatalf("handshake tenant %d: %v", i, err)
		}
		id := fmt.Sprintf("%s-%d", peer.Peer, i)
		st, err := svc.Admit(id)
		if err != nil {
			log.Fatalf("admit %s: %v", id, err)
		}
		log.Printf("tenant %s admitted (%s @ %.0f fps)", id, peer.Mode, peer.FPS)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer svc.Detach(id)
			frames, err := st.Serve(ctx, &semholo.Receiver{Session: sess}, func(semholo.FrameData) error {
				decoded.Add(1)
				return nil
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("tenant %s: %v", id, err)
			}
			log.Printf("tenant %s done: %d frames", id, frames)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	snap := svc.Counters().Snapshot()
	fmt.Printf("decoded %d frames across %d tenants in %.1fs — %.1f aggregate fps\n",
		decoded.Load(), n, elapsed, float64(decoded.Load())/elapsed)
	fmt.Printf("mesh cache: %.0f%% hit rate, %d cross-tenant hits\n",
		100*snap.HitRate(), snap.CrossTenantHits)
}

func describe(frame int, data semholo.FrameData) {
	switch {
	case data.Mesh != nil:
		log.Printf("frame %4d: mesh %d verts / %d faces", frame, len(data.Mesh.Vertices), len(data.Mesh.Faces))
	case data.Cloud != nil:
		log.Printf("frame %4d: cloud %d points", frame, data.Cloud.Len())
	case data.NovelView != nil:
		log.Printf("frame %4d: novel view %dx%d", frame,
			data.NovelView.Camera.Intr.Width, data.NovelView.Camera.Intr.Height)
	}
}

func dumpOBJ(dir string, frame int, m *mesh.Mesh) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("dump: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("frame-%05d.obj", frame))
	f, err := os.Create(path)
	if err != nil {
		log.Printf("dump: %v", err)
		return
	}
	defer f.Close()
	if err := mesh.WriteOBJ(f, m); err != nil {
		log.Printf("dump: %v", err)
	}
}
