package pipeline

import (
	"context"
	"errors"
	"io"
	"net"

	"semholo/internal/core"
	"semholo/internal/obs"
	"semholo/internal/queue"
	"semholo/internal/service"
)

// Sink consumes decoded frames on the render stage — the "photon" end
// of the motion-to-photon path (display, OBJ dump, measurement probe).
// It is called from the render stage goroutine only.
type Sink func(data core.FrameData) error

// ReceiverOptions configures RunReceiver.
type ReceiverOptions struct {
	// Frames bounds how many media frames to take off the wire (<= 0:
	// until the peer closes).
	Frames int
	// QueueDepth bounds each stage-connecting queue (default 1).
	QueueDepth int
	// Lossless disables latest-frame-wins drops so every received frame
	// is decoded and rendered (determinism / replay mode).
	Lossless bool
	// Registry, when set, receives per-queue depth gauges and drop
	// counters.
	Registry *obs.Registry
	// Site labels the queue metrics (default "receiver").
	Site string
	// Metrics, when set, records the decode and render stage spans and,
	// for frames the sender traced, the network span and end-to-end
	// motion-to-photon latency.
	Metrics *obs.PipelineMetrics
}

// ReceiverStats reports what a RunReceiver invocation did.
type ReceiverStats struct {
	// Received / Decoded / Rendered are per-stage media frame counts; in
	// drop mode stale frames vanish between stages.
	Received int
	Decoded  int
	Rendered int
	// Dropped counts stale frames discarded by latest-frame-wins queues.
	Dropped uint64
}

// RunReceiver drives one receiving site as three overlapped stages —
// recv ∥ decode ∥ render — connected by bounded queues, and returns
// once every stage has exited: after the peer closes (graceful, queues
// drain), on the first stage error, or on context cancellation. Frames
// decode in the decode-service tenant st. The receiver's Session should
// be bound to the same context (AcceptContext) so cancellation also
// unblocks the wire read.
func RunReceiver(ctx context.Context, r *core.Receiver, st *service.StreamCtx, sink Sink, opt ReceiverOptions) (ReceiverStats, error) {
	if opt.Site == "" {
		opt.Site = "receiver"
	}
	decQ := queue.NewQueue[core.RawFrame](opt.QueueDepth, opt.Lossless)
	renderQ := queue.NewQueue[core.FrameData](opt.QueueDepth, opt.Lossless)
	decQ.Instrument(opt.Registry, opt.Site, "decode")
	renderQ.Instrument(opt.Registry, opt.Site, "render")
	// Receiver-side evictions carry the dropped frame's trace ID when the
	// sender traced it, so a /debug/flight dump names the exact frames a
	// latency spike cost.
	decQ.OnDrop = func(ev core.RawFrame) {
		var id uint64
		if ev.Trace != nil {
			id = ev.Trace.TraceID
		}
		obs.Flight.Record(obs.EvQueueDrop, opt.Site+":decode", id, 0, 0)
	}
	renderQ.OnDrop = func(ev core.FrameData) {
		var id uint64
		if ev.Trace != nil {
			id = ev.Trace.TraceID
		}
		obs.Flight.Record(obs.EvQueueDrop, opt.Site+":render", id, 0, 0)
	}

	var stats ReceiverStats
	g, ctx := NewGroup(ctx)
	// A decode/render failure must unblock a recv stage stalled on the wire.
	defer closeOnFailure(ctx, r.Session)()

	// Recv stage: pulls wire frames off the session. Kept free of decode
	// work so the socket is always being drained — backlog lands in the
	// drop-policy queue, not in kernel buffers where it ages invisibly.
	g.Go(func(ctx context.Context) error {
		defer decQ.Close()
		for i := 0; opt.Frames <= 0 || i < opt.Frames; i++ {
			raw, err := r.NextRaw()
			if err != nil {
				// A session that closed — gracefully by the peer, or under
				// us during teardown — is the normal end of the stream.
				if errors.Is(err, core.ErrSessionClosed) || errors.Is(err, io.EOF) ||
					errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
					return nil
				}
				return ignoreClosed(err)
			}
			stats.Received++
			if err := decQ.Put(ctx, raw); err != nil {
				return ignoreClosed(err)
			}
		}
		return nil
	})

	// Decode stage: reconstruction — the receiver's compute-heavy hop.
	g.Go(func(ctx context.Context) error {
		defer renderQ.Close()
		for {
			raw, err := decQ.Get(ctx)
			if err != nil {
				return ignoreClosed(err)
			}
			stop := opt.Metrics.StartStage(obs.StageDecode)
			data, err := st.Decode(ctx, raw)
			stop()
			if err != nil {
				return ignoreClosed(err)
			}
			if t := data.Trace; t != nil {
				opt.Metrics.ObserveTrace(*t)
				obs.Flight.Record(obs.EvFrameDecoded, opt.Site, t.TraceID,
					t.DecodedAt.Sub(t.ArrivedAt).Microseconds(), 0)
			}
			stats.Decoded++
			if err := renderQ.Put(ctx, data); err != nil {
				return ignoreClosed(err)
			}
		}
	})

	// Render stage: hands frames to the sink, recording the render span.
	g.Go(func(ctx context.Context) error {
		for {
			data, err := renderQ.Get(ctx)
			if err != nil {
				return ignoreClosed(err)
			}
			if sink != nil {
				stop := opt.Metrics.StartStage(obs.StageRender)
				err := sink(data)
				stop()
				if err != nil {
					return err
				}
			}
			if data.Trace != nil {
				obs.Flight.Record(obs.EvFrameRendered, opt.Site, data.Trace.TraceID, 0, 0)
			}
			stats.Rendered++
		}
	})

	err := g.Wait()
	if err != nil && !errors.Is(err, context.Canceled) {
		// Auto-snapshot on pipeline failure: freeze the flight ring so the
		// events leading up to the error survive for /debug/flight.
		obs.Flight.Record(obs.EvError, opt.Site, 0, 0, 0)
		obs.Flight.Snapshot(opt.Site + ": " + err.Error())
	}
	stats.Dropped = decQ.Dropped() + renderQ.Dropped()
	return stats, err
}
