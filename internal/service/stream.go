package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semholo/internal/core"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// StreamCtx is one tenant's per-stream state inside a DecodeService: a
// stateful decoder (warm-start band, codec and graft scratch) over the
// service's shared kernels and shared read-only cached meshes, plus the
// in-flight cap that keeps the tenant's bursts queued against itself.
// Obtain one from DecodeService.Admit.
type StreamCtx struct {
	id  string
	svc *DecodeService
	dec core.Decoder

	// tokens caps this tenant's concurrent decodes; decodeMu serializes
	// the stateful decoder itself when the cap admits more than one.
	tokens   chan struct{}
	decodeMu sync.Mutex

	pending  atomic.Int64
	frames   atomic.Uint64
	detached atomic.Bool
}

// ID returns the tenant id.
func (st *StreamCtx) ID() string { return st.id }

// Frames returns how many media frames this stream has decoded.
func (st *StreamCtx) Frames() uint64 { return st.frames.Load() }

// Pending returns this stream's in-flight frame count (queued or
// decoding).
func (st *StreamCtx) Pending() int { return int(st.pending.Load()) }

// Decode reconstructs one collected media frame. It blocks while the
// tenant is at its in-flight cap and while waiting for the stream's
// fair share of the shared worker pool; ctx cancels either wait. Safe
// for concurrent use — calls beyond the in-flight cap queue FIFO-ish on
// the token channel. The decoded output is byte-identical to a solo
// core.Receiver decoding the same wire frames; its Mesh may be the
// service cache's own copy, shared with other tenants — read-only.
func (st *StreamCtx) Decode(ctx context.Context, raw core.RawFrame) (core.FrameData, error) {
	if st.detached.Load() {
		return core.FrameData{}, fmt.Errorf("service: tenant %q detached", st.id)
	}
	svc := st.svc
	start := time.Now()
	depth := st.pending.Add(1)
	if svc.queueDepth != nil {
		svc.queueDepth.With(st.id).Set(float64(depth))
	}
	defer func() {
		depth := st.pending.Add(-1)
		if svc.queueDepth != nil {
			svc.queueDepth.With(st.id).Set(float64(depth))
		}
	}()

	// Per-tenant in-flight cap: a burst waits here, holding no pool
	// slots, so other tenants' reservations stay ahead of it.
	select {
	case st.tokens <- struct{}{}:
	case <-ctx.Done():
		return core.FrameData{}, ctx.Err()
	}
	defer func() { <-st.tokens }()

	waitStart := time.Now()
	grant, err := svc.pool.Reserve(ctx, svc.fairShare())
	if err != nil {
		return core.FrameData{}, err
	}
	defer svc.pool.Release(grant)
	var traceID uint64
	if raw.Trace != nil {
		traceID = raw.Trace.TraceID
	}
	obs.Flight.Record(obs.EvPoolWait, "service:"+st.id, traceID,
		time.Since(waitStart).Microseconds(), int64(grant))

	st.decodeMu.Lock()
	if tierSwitched(raw) {
		// Mid-stream tier switch: drop the decoder's cross-frame state
		// (warm-start bands, texture history, delta references) on
		// exactly this keyframe boundary, so the switched stream decodes
		// byte-identically to a cold decode of the new tier.
		if rs, ok := st.dec.(core.StateResetter); ok {
			rs.ResetState()
		}
		obs.Flight.Record(obs.EvTierSwitch, "service:"+st.id, traceID, -1, tierOf(raw))
	}
	if ws, ok := st.dec.(workerSetter); ok {
		ws.SetWorkers(grant)
	}
	data, err := st.dec.Decode(raw.Frames)
	st.decodeMu.Unlock()
	if err != nil {
		return core.FrameData{}, err
	}
	if raw.Trace != nil {
		raw.Trace.DecodedAt = time.Now()
		// Extend hop-annotated traces with this tenant's service hop
		// (queue entry → decode completion) and publish the completed
		// trace for /debug/trace/<id>.
		if len(raw.Trace.Hops) > 0 {
			raw.Trace.Hops = append(raw.Trace.Hops, obs.Hop{
				Kind: obs.HopService, Site: svc.opt.Site,
				RecvMicros: uint64(start.UnixMicro()),
				SendMicros: uint64(raw.Trace.DecodedAt.UnixMicro()),
			})
		}
		obs.Traces.Put(*raw.Trace)
		data.Trace = raw.Trace
	}
	st.frames.Add(1)
	if svc.latency != nil {
		svc.latency.With(st.id).Observe(time.Since(start).Seconds())
	}
	if svc.frames != nil {
		svc.frames.With(st.id).Inc()
	}
	return data, nil
}

// tierSwitched reports whether any wire frame of the media frame
// carries the tier-switch marker.
func tierSwitched(raw core.RawFrame) bool {
	for _, f := range raw.Frames {
		if f.Flags&transport.FlagTierSwitch != 0 {
			return true
		}
	}
	return false
}

// tierOf returns the media frame's tier (-1 when untiered).
func tierOf(raw core.RawFrame) int64 {
	for _, f := range raw.Frames {
		if f.Tiered() {
			return int64(f.Tier)
		}
	}
	return -1
}

// Serve drives one receiver's whole stream through the service: collect
// raw frames off r's session, decode each under the shared pool, and
// hand the results to sink. It returns the number of frames decoded,
// stopping with a nil error when the peer closes gracefully. The
// receiver's Decoder field is not used — decoding happens in the
// stream's service decoder.
func (st *StreamCtx) Serve(ctx context.Context, r *core.Receiver, sink func(core.FrameData) error) (int, error) {
	n := 0
	for {
		raw, err := r.NextRaw()
		if err != nil {
			if errors.Is(err, core.ErrSessionClosed) || errors.Is(err, io.EOF) ||
				errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return n, nil
			}
			return n, err
		}
		data, err := st.Decode(ctx, raw)
		if err != nil {
			return n, err
		}
		n++
		if sink != nil {
			if err := sink(data); err != nil {
				return n, err
			}
		}
	}
}
