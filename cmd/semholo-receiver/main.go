// Command semholo-receiver is a standalone telepresence receiver: it
// accepts semholo-sender sessions over TCP, reconstructs every media
// frame with the selected semantics, and reports throughput, decode
// timing, and reconstruction statistics. Reconstructions can optionally
// be dumped as OBJ files for inspection. Every session is one tenant of a
// single DecodeService — one worker pool and one pose-keyed mesh cache
// for the process — and runs the staged pipeline runtime: recv, decode,
// and render overlap in separate goroutines connected by
// latest-frame-wins queues, so a slow reconstruction drops stale frames
// instead of building backlog. Ctrl-C shuts the pipelines down
// gracefully.
//
// Usage:
//
//	semholo-receiver -listen :7843 -mode keypoint -tenants 2 -dump /tmp/frames
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
	"semholo/internal/obs"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7843", "listen address")
		mode      = flag.String("mode", "keypoint", "semantics: keypoint|traditional|text")
		res       = flag.Int("res", 64, "keypoint reconstruction resolution")
		dump      = flag.String("dump", "", "directory to dump OBJ reconstructions (every 30th frame of each session)")
		name      = flag.String("name", "site-B", "participant name")
		queue     = flag.Int("queue", 1, "staged runtime: per-stage queue depth")
		lossless  = flag.Bool("lossless", false, "staged runtime: block instead of dropping stale frames")
		tenants   = flag.Int("tenants", 1, "sender sessions to accept; all decode through the one shared DecodeService")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/* and pprof on this address (e.g. 127.0.0.1:6061)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Observability: the receiver is where cross-site spans land — the
	// trace extension on arriving frames yields network and end-to-end
	// motion-to-photon latency against the 100 ms budget. The service
	// registers the shared reconstruction and cache counters.
	reg := obs.NewRegistry()
	pm := obs.NewPipelineMetrics(reg)

	world := semholo.NewWorld(semholo.WorldOptions{})
	opt := semholo.ServiceOptions{Model: world.Model, Resolution: *res, Registry: reg}
	switch *mode {
	case "keypoint": // the service's default decoder
	case "traditional":
		opt.NewDecoder = func(semholo.ServiceOptions) semholo.Decoder {
			_, dec := semholo.NewTraditionalPipeline()
			return dec
		}
	case "text":
		opt.NewDecoder = func(semholo.ServiceOptions) semholo.Decoder {
			_, dec := semholo.NewTextPipeline(semholo.TextOptions{})
			return dec
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	svc := semholo.NewDecodeService(opt)
	defer svc.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// Ctrl-C also ends a wait for sessions that never connect.
	context.AfterFunc(ctx, func() { ln.Close() })
	log.Printf("listening on %s (%s mode, %d session(s), pool capacity %d)",
		ln.Addr(), *mode, *tenants, svc.Pool().Capacity())

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

	var (
		wg              sync.WaitGroup
		rendered, bytes atomic.Int64
		failed          atomic.Bool
	)
	var start time.Time // the first admission
	admitted := 0
	for i := 0; i < *tenants; i++ {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			log.Fatalf("accept session %d: %v", i, err)
		}
		// The session shares the signal context: Ctrl-C unblocks the wire
		// read and tears the connection down.
		sess, peer, err := semholo.ServeContext(ctx, conn, semholo.Hello{Peer: *name, Mode: *mode})
		if err != nil {
			log.Fatalf("handshake %d: %v", i, err)
		}
		id := fmt.Sprintf("%s-%d", peer.Peer, i)
		st, err := svc.Admit(id)
		if err != nil {
			log.Fatalf("admit %s: %v", id, err)
		}
		if admitted == 0 {
			start = time.Now()
		}
		admitted++
		sess.Instrument(reg, id)
		log.Printf("tenant %s admitted (%s @ %.0f fps)", id, peer.Mode, peer.FPS)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer svc.Detach(id)
			n := 0
			stats, err := semholo.RunReceiverPipeline(ctx, &semholo.Receiver{Session: sess}, st, func(data semholo.FrameData) error {
				n++
				if n%30 == 0 {
					describe(id, n, data)
					if *dump != "" && data.Mesh != nil {
						dumpOBJ(*dump, id, n, data.Mesh)
					}
				}
				return nil
			}, semholo.PipelineReceiverOptions{
				QueueDepth: *queue,
				Lossless:   *lossless,
				Registry:   reg,
				Site:       id,
				Metrics:    pm,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("tenant %s: pipeline: %v", id, err)
				failed.Store(true)
			}
			rendered.Add(int64(stats.Rendered))
			bytes.Add(int64(sess.Stats().BytesReceived))
			log.Printf("tenant %s: received %d, decoded %d, rendered %d, dropped %d stale",
				id, stats.Received, stats.Decoded, stats.Rendered, stats.Dropped)
		}()
	}
	wg.Wait()
	if admitted == 0 {
		return
	}
	elapsed := time.Since(start).Seconds()
	snap := svc.Counters().Snapshot()
	fmt.Printf("rendered %d media frames across %d tenants (%.2f MB) in %.1fs — %.1f aggregate fps, %.2f Mbps\n",
		rendered.Load(), admitted, float64(bytes.Load())/1e6, elapsed,
		float64(rendered.Load())/elapsed, float64(bytes.Load())*8/elapsed/1e6)
	fmt.Printf("mesh cache: %.0f%% hit rate, %d cross-tenant hits\n", 100*snap.HitRate(), snap.CrossTenantHits)
	fmt.Print(pm.Report())
	if failed.Load() {
		os.Exit(1)
	}
}

func describe(id string, frame int, data semholo.FrameData) {
	switch {
	case data.Mesh != nil:
		log.Printf("%s frame %4d: mesh %d verts / %d faces", id, frame, len(data.Mesh.Vertices), len(data.Mesh.Faces))
	case data.Cloud != nil:
		log.Printf("%s frame %4d: cloud %d points", id, frame, data.Cloud.Len())
	case data.NovelView != nil:
		log.Printf("%s frame %4d: novel view %dx%d", id, frame,
			data.NovelView.Camera.Intr.Width, data.NovelView.Camera.Intr.Height)
	}
}

func dumpOBJ(dir, id string, frame int, m *mesh.Mesh) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("dump: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-frame-%05d.obj", id, frame))
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
