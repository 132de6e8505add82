package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"semholo/internal/core"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// StreamCtx is one tenant's per-stream state inside a DecodeService: a
// stateful decoder (rest surface, codec and graft scratch) over the
// service's shared kernels and shared read-only cached meshes, plus the
// one-decode-at-a-time token that keeps the tenant's bursts queued
// against itself. Obtain one from DecodeService.Admit.
type StreamCtx struct {
	id  string
	svc *DecodeService
	dec core.Decoder

	// token admits one decode at a time, which also serializes the
	// stateful decoder; a cancellable channel rather than a mutex, so a
	// caller waiting behind a burst can give up.
	token chan struct{}

	// pending counts in-flight frames (queued or decoding) for the
	// queue-depth gauge.
	pending  atomic.Int64
	frames   atomic.Uint64
	detached atomic.Bool
}

// ID returns the tenant id.
func (st *StreamCtx) ID() string { return st.id }

// Frames returns how many media frames this stream has decoded.
func (st *StreamCtx) Frames() uint64 { return st.frames.Load() }

// Decode reconstructs one collected media frame. It blocks while the
// tenant is already decoding and while waiting for the stream's fair
// share of the shared worker pool; ctx cancels either wait. Safe for
// concurrent use — concurrent calls queue on the token channel. On a
// tier-switch marker it first resets the decoder's cross-frame state.
// A traced frame's hop path is terminated with this service's hop
// (arrival → decode completion) and the completed trace is published to
// obs.Traces. The decoded output is byte-identical to the bare decoder
// decoding the same wire frames; its Mesh may be the service cache's own
// copy, shared with other tenants — read-only.
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

	// One decode per tenant: a burst waits here, holding no pool slots,
	// so other tenants' reservations stay ahead of it.
	select {
	case st.token <- struct{}{}:
	case <-ctx.Done():
		return core.FrameData{}, ctx.Err()
	}
	defer func() { <-st.token }()

	pool := svc.opt.Pool
	waitStart := time.Now()
	grant, err := pool.Reserve(ctx, svc.fairShare())
	if err != nil {
		return core.FrameData{}, err
	}
	defer pool.Release(grant)
	var traceID uint64
	if raw.Trace != nil {
		traceID = raw.Trace.TraceID
	}
	obs.Flight.Record(obs.EvPoolWait, "service:"+st.id, traceID,
		time.Since(waitStart).Microseconds(), int64(grant))

	if tierSwitched(raw) {
		// Mid-stream tier switch: drop the decoder's cross-frame state
		// (texture history, delta references, trained fields) on
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
	if err != nil {
		return core.FrameData{}, err
	}
	if raw.Trace != nil {
		raw.Trace.DecodedAt = time.Now()
		// Terminate hop-annotated traces with the service hop, so the
		// waterfall telescopes to the full e2e span. The hop opens at
		// arrival, not at this call: a staged receiver's decode-queue
		// dwell belongs to the service, not to the wire.
		if len(raw.Trace.Hops) > 0 {
			raw.Trace.Hops = append(raw.Trace.Hops, obs.Hop{
				Kind: obs.HopService, Site: svc.opt.Site,
				RecvMicros: uint64(raw.Trace.ArrivedAt.UnixMicro()),
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
