// End-to-end observability integration test: a sender/receiver pair over
// an emulated WAN link, every telemetry source registered into one
// Registry, verified through an actual HTTP /metrics scrape — the
// acceptance path for the unified observability layer.
//
// This lives in package obs_test so it can depend on the full pipeline
// (semholo, transport, netsim) without creating an import cycle with the
// stdlib-only obs package.
package obs_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"semholo"
	"semholo/internal/avatar"
	"semholo/internal/metrics"
	"semholo/internal/netsim"
	"semholo/internal/obs"
)

// scrape fetches /metrics from a handler-backed test server.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	srv := httptest.NewServer(obs.Handler(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	return string(body)
}

// metricValue finds the sample value of an exact series (name plus full
// label block) in Prometheus exposition text; -1 when absent.
func metricValue(exposition, series string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

func TestEndToEndScrape(t *testing.T) {
	const frames = 10

	// One registry for the whole in-process "deployment".
	reg := obs.NewRegistry()
	pm := obs.NewPipelineMetrics(reg)

	// Emulated WAN with loss, so drop counters move too.
	connA, connB, link := netsim.Pipe(netsim.LinkConfig{
		Bandwidth: 50e6, Delay: 3 * time.Millisecond, Jitter: time.Millisecond,
		MTU: 2048, Loss: 0.2, RetransmitDelay: 2 * time.Millisecond, Seed: 3,
	})
	defer link.Close()
	link.Instrument(reg, "wan")

	// Receiver-side reconstruction with cache counters, in a one-tenant
	// decode service.
	world := semholo.NewWorld(semholo.WorldOptions{Resolution: 24, Cameras: 2, Seed: 1})
	enc, kd := semholo.NewKeypointPipeline(world, semholo.KeypointOptions{Resolution: 16})
	var recon metrics.ReconCounters
	recon.Register(reg)
	kd.Cache = &avatar.MeshCache{Capacity: 4, Quant: 0.05}
	kd.Counters = &recon
	kd.Obs = pm
	svc := semholo.NewDecodeService(semholo.ServiceOptions{
		NewDecoder: func(semholo.ServiceOptions) semholo.Decoder { return kd },
	})
	defer svc.Close()
	tenant, err := svc.Admit("site-A")
	if err != nil {
		t.Fatal(err)
	}

	type handshake struct {
		sess *semholo.Session
		err  error
	}
	acceptCh := make(chan handshake, 1)
	go func() {
		sess, _, err := semholo.Serve(connB, semholo.Hello{Peer: "site-B", Mode: "keypoint"})
		acceptCh <- handshake{sess, err}
	}()
	sessA, _, err := semholo.Connect(connA, semholo.Hello{Peer: "site-A", Mode: "keypoint"})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	acc := <-acceptCh
	if acc.err != nil {
		t.Fatalf("serve: %v", acc.err)
	}
	sessB := acc.sess
	sessA.Instrument(reg, "sender")
	sessB.Instrument(reg, "receiver")

	// Sender: an echo goroutine answers the receiver's pings (Recv does
	// that transparently), the main goroutine streams traced frames.
	go func() {
		for {
			if _, err := sessA.Recv(); err != nil {
				return
			}
		}
	}()
	sendErr := make(chan error, 1)
	go func() {
		sender := &semholo.Sender{Session: sessA, Encoder: enc, Obs: pm}
		for i := 0; i < frames; i++ {
			capturedAt := time.Now()
			cap := world.FrameAt(i)
			pm.ObserveStage(obs.StageCapture, time.Since(capturedAt))
			if err := sender.SendFrameCaptured(cap, capturedAt); err != nil {
				sendErr <- err
				return
			}
		}
		// Grace period so the pong for the receiver's RTT probe lands
		// before the close tears the link down.
		time.Sleep(100 * time.Millisecond)
		sendErr <- sessA.Close()
	}()

	// Staged receive until the sender closes; the sink runs on the render
	// stage's goroutine.
	received := 0
	var lastTraceID uint64
	_, err = semholo.RunReceiverPipeline(context.Background(), &semholo.Receiver{Session: sessB}, tenant,
		func(data semholo.FrameData) error {
			received++
			if data.Trace == nil {
				return fmt.Errorf("frame %d arrived without a trace (sender Obs set)", received)
			}
			if data.Trace.TraceID <= lastTraceID {
				t.Errorf("trace IDs not increasing: %d after %d", data.Trace.TraceID, lastTraceID)
			}
			lastTraceID = data.Trace.TraceID
			if data.Trace.Network() <= 0 {
				t.Errorf("frame %d network span %v, want > 0 over a 3 ms link", received, data.Trace.Network())
			}
			if received == 1 {
				return sessB.Ping()
			}
			return nil
		}, semholo.PipelineReceiverOptions{Lossless: true, Metrics: pm})
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if received != frames {
		t.Fatalf("received %d media frames, want %d", received, frames)
	}

	exp := scrape(t, reg)

	// Per-stage latency histograms, including the network span computed
	// from the propagated capture/send timestamps.
	for _, stage := range []string{"capture", "encode", "send", "network", "decode", "reconstruct"} {
		series := `semholo_stage_latency_seconds_bucket{stage="` + stage + `",le="+Inf"}`
		if got := metricValue(exp, series); got < 1 {
			t.Errorf("stage %q: %s = %v, want >= 1", stage, series, got)
		}
	}
	if got := metricValue(exp, `semholo_stage_latency_seconds_count{stage="network"}`); got != frames {
		t.Errorf("network span count = %v, want %d", got, frames)
	}

	// End-to-end motion-to-photon distribution and derived quantiles.
	if got := metricValue(exp, "semholo_e2e_latency_seconds_count"); got != frames {
		t.Errorf("e2e count = %v, want %d", got, frames)
	}
	p50 := metricValue(exp, "semholo_e2e_latency_p50_seconds")
	p95 := metricValue(exp, "semholo_e2e_latency_p95_seconds")
	if p50 <= 0 {
		t.Errorf("e2e p50 = %v, want > 0", p50)
	}
	if p95 < p50 {
		t.Errorf("e2e p95 %v < p50 %v", p95, p50)
	}

	// Session byte/frame counters for both sites plus the RTT probe.
	if got := metricValue(exp, `semholo_session_bytes_total{site="sender",direction="sent"}`); got <= 0 {
		t.Errorf("sender bytes sent = %v, want > 0", got)
	}
	if got := metricValue(exp, `semholo_session_bytes_total{site="receiver",direction="received"}`); got <= 0 {
		t.Errorf("receiver bytes received = %v, want > 0", got)
	}
	if got := metricValue(exp, `semholo_session_frames_total{site="receiver",direction="received"}`); got < frames {
		t.Errorf("receiver wire frames = %v, want >= %d", got, frames)
	}
	if got := metricValue(exp, `semholo_session_rtt_seconds{site="receiver"}`); got <= 0 {
		t.Errorf("receiver RTT = %v, want > 0 (ping answered over a 3 ms link)", got)
	}

	// Reconstruction counters: every decoded frame is a mesh-cache hit or
	// a skinned frame, which evaluates no lattice samples.
	cold := metricValue(exp, `semholo_recon_frames_total{kind="cold"}`)
	hits := metricValue(exp, `semholo_recon_mesh_cache_ops_total{op="hit"}`)
	if cold < 1 || cold+hits != frames {
		t.Errorf("recon frames %v, cache hits %v: want frames+hits = %d decoded frames", cold, hits, frames)
	}
	if got := metricValue(exp, `semholo_recon_samples_total{kind="evaluated"}`); got != 0 {
		t.Errorf("recon samples evaluated = %v, want 0 (skinning evaluates no lattice samples)", got)
	}
	if got := metricValue(exp, "semholo_recon_mesh_cache_hit_rate"); got < 0 {
		t.Error("mesh cache hit rate missing from scrape")
	}

	// Link statistics, including recovered losses.
	if got := metricValue(exp, `semholo_netsim_bytes_total{link="wan",direction="a_to_b"}`); got <= 0 {
		t.Errorf("link bytes = %v, want > 0", got)
	}
	if got := metricValue(exp, `semholo_netsim_drops_total{link="wan",direction="a_to_b"}`); got < 0 {
		t.Error("link drop counter missing from scrape")
	}
}

// TestRelayScrape verifies the relay fan-out telemetry reaches a real
// /metrics scrape: ingress/broadcast instruments, per-peer egress
// queue/delivery series, and the peer-count gauge.
func TestRelayScrape(t *testing.T) {
	const frames = 8
	reg := obs.NewRegistry()
	relay := semholo.NewRelayOpts(context.Background(), semholo.RelayOptions{QueueDepth: 8, Registry: reg})
	defer relay.Close()

	dial := func(name string) *semholo.Session {
		a, b, link := semholo.EmulatedLink(semholo.LinkConfig{})
		t.Cleanup(func() { link.Close() })
		attached := make(chan struct{})
		go func() {
			defer close(attached)
			s, _, err := semholo.Serve(b, semholo.Hello{Peer: "relay"})
			if err == nil {
				_, err = relay.Attach(name, s)
			}
			if err != nil {
				t.Errorf("attach %s: %v", name, err)
			}
		}()
		sess, _, err := semholo.Connect(a, semholo.Hello{Peer: name})
		if err != nil {
			t.Fatalf("connect %s: %v", name, err)
		}
		// Frames sent before the relay registers a peer never reach it;
		// wait for the attach so every subscriber sees the whole stream.
		<-attached
		return sess
	}
	pub := dial("pub")
	subs := map[string]*semholo.Session{"sub1": dial("sub1"), "sub2": dial("sub2")}

	for i := 0; i < frames; i++ {
		if _, err := pub.SendBatch([]semholo.WireFrame{{Type: semholo.FrameTypeSemantic, Channel: 1, Payload: []byte("relay-metrics")}}); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range subs {
		for i := 0; i < frames; i++ {
			if _, err := s.Recv(); err != nil {
				t.Fatalf("%s recv %d: %v", name, i, err)
			}
		}
	}

	// Every relay series carries the room label ("default" when the
	// relay was built without one) so shards hosting many rooms on one
	// registry stay scrapeable per room.
	exp := scrape(t, reg)
	if got := metricValue(exp, `semholo_relay_peers{room="default"}`); got != 3 {
		t.Errorf("relay peers = %v, want 3", got)
	}
	if got := metricValue(exp, `semholo_relay_ingress_frames_total{room="default"}`); got != frames {
		t.Errorf("ingress frames = %v, want %d", got, frames)
	}
	if got := metricValue(exp, `semholo_relay_unroutable_frames_total{room="default"}`); got != 0 {
		t.Errorf("unroutable frames = %v, want 0", got)
	}
	if got := metricValue(exp, `semholo_relay_fanout_broadcast_seconds_count{room="default"}`); got != frames {
		t.Errorf("broadcast histogram count = %v, want %d", got, frames)
	}
	if got := metricValue(exp, `semholo_relay_fanout_egress_seconds_count{room="default"}`); got < frames {
		t.Errorf("egress histogram count = %v, want >= %d", got, frames)
	}
	for _, peer := range []string{"sub1", "sub2"} {
		if got := metricValue(exp, `semholo_relay_egress_delivered_frames_total{room="default",peer="`+peer+`"}`); got < frames {
			t.Errorf("%s delivered = %v, want >= %d", peer, got, frames)
		}
		if got := metricValue(exp, `semholo_relay_egress_queue_depth{room="default",peer="`+peer+`"}`); got < 0 {
			t.Errorf("%s queue depth series missing from scrape", peer)
		}
		if got := metricValue(exp, `semholo_relay_egress_dropped_frames_total{room="default",peer="`+peer+`"}`); got != 0 {
			t.Errorf("%s dropped = %v, want 0 on an unshaped link", peer, got)
		}
	}
}
