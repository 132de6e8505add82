package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"

	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// TestRelaySlowSubscriberIsolation is the head-of-line-blocking
// regression: one completely stalled subscriber must not delay delivery
// to healthy ones. Healthy peers keep a bounded ingress→egress latency
// and contiguous per-channel sequence numbers; the stalled peer sheds
// frames into its own drop counter.
func TestRelaySlowSubscriberIsolation(t *testing.T) {
	const frames = 40
	reg := obs.NewRegistry()
	r := NewRelayOpts(context.Background(), RelayOptions{QueueDepth: 4, Registry: reg})
	defer r.Close()

	pub := attachParticipant(t, r, "publisher")
	defer pub.link.Close()
	healthy := []*relayParticipant{
		attachParticipant(t, r, "h1"),
		attachParticipant(t, r, "h2"),
		attachParticipant(t, r, "h3"),
	}
	slow := attachParticipant(t, r, "slow")
	defer slow.link.Close()
	// Relay egress toward a subscriber flows on the Accept side of the
	// pipe, i.e. the b→a direction. Wedge only the slow peer's.
	slow.link.SetBandwidthBtoA(netsim.Stalled)

	type result struct {
		name      string
		seqs      []uint32
		latencies []float64 // ms, capture→receive
		err       error
	}
	results := make(chan result, len(healthy))
	for _, p := range healthy {
		p := p
		defer p.link.Close()
		go func() {
			res := result{name: p.name}
			deadline := time.After(10 * time.Second)
			got := make(chan struct{}, 1)
			for len(res.seqs) < frames {
				var f transport.Frame
				var err error
				go func() {
					f, err = p.sess.Recv()
					got <- struct{}{}
				}()
				select {
				case <-got:
				case <-deadline:
					results <- res
					return
				}
				if err != nil {
					res.err = err
					results <- res
					return
				}
				res.seqs = append(res.seqs, f.Seq)
				if f.Traced() {
					res.latencies = append(res.latencies, float64(obs.NowMicros()-f.CaptureTS)/1000)
				}
			}
			results <- res
		}()
	}

	payload := make([]byte, 2048)
	for i := 0; i < frames; i++ {
		traced := transport.Frame{
			Type: transport.TypeSemantic, Channel: 1, Flags: transport.FlagTrace,
			CaptureTS: obs.NowMicros(), TraceID: uint64(i), Payload: payload,
		}
		if _, err := pub.sess.SendBatch([]transport.Frame{traced}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	for range healthy {
		res := <-results
		if res.err != nil {
			t.Fatalf("%s: %v", res.name, res.err)
		}
		// The stalled peer must not slow healthy delivery below a
		// near-complete stream.
		if len(res.seqs) < frames-5 {
			t.Errorf("%s received %d/%d frames", res.name, len(res.seqs), frames)
		}
		// Per-(peer,channel) sequence numbers are contiguous from zero:
		// egress assigns them at write time, so queue sheds elsewhere
		// never punch holes here.
		for i, s := range res.seqs {
			if s != uint32(i) {
				t.Fatalf("%s: seq[%d] = %d, want %d", res.name, i, s, i)
			}
		}
		if len(res.latencies) > 0 {
			sort.Float64s(res.latencies)
			if p95 := res.latencies[len(res.latencies)*95/100]; p95 > 500 {
				t.Errorf("%s p95 capture→receive = %.1fms with a stalled co-subscriber", res.name, p95)
			}
		}
	}

	stats := r.PeerStats()
	byName := map[string]RelayPeerStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["slow"].Dropped == 0 {
		t.Errorf("stalled peer shed no frames: %+v", byName["slow"])
	}
	for _, h := range []string{"h1", "h2", "h3"} {
		if byName[h].Delivered < frames-5 {
			t.Errorf("%s delivered %d/%d", h, byName[h].Delivered, frames)
		}
	}
	if r.IngressFrames() != frames {
		t.Errorf("ingress frames = %d, want %d", r.IngressFrames(), frames)
	}
}

// TestRelayEgressChurnNoLeak exercises attach/detach churn with live
// traffic and asserts both per-peer goroutines (pump + egress) are
// joined every round.
func TestRelayEgressChurnNoLeak(t *testing.T) {
	leakCheck := relayGoroutineCheck(t)
	r := NewRelayOpts(t.Context(), RelayOptions{})
	for round := 0; round < 4; round++ {
		pub := attachParticipant(t, r, "pub")
		var subs []*relayParticipant
		for i := 0; i < 3; i++ {
			subs = append(subs, attachParticipant(t, r, fmt.Sprintf("sub%d", i)))
		}
		for i := 0; i < 5; i++ {
			if err := sendData(pub.sess, 1, 0, []byte("churn")); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range subs {
			if _, err := s.sess.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		r.Detach("pub")
		for i := range subs {
			r.Detach(fmt.Sprintf("sub%d", i))
		}
		pub.link.Close()
		for _, s := range subs {
			s.link.Close()
		}
		if got := len(r.Peers()); got != 0 {
			t.Fatalf("round %d: %d peers after detach", round, got)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	leakCheck()
}

// TestRelayUnroutableFramesCounted: frame types the relay does not
// forward increment the drift counter instead of disappearing silently.
func TestRelayUnroutableFramesCounted(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	defer r.Close()
	sub := attachParticipant(t, r, "sub")
	defer sub.link.Close()

	// A raw protocol client: handshake by hand, then send a frame type
	// the relay cannot route, then a routable one.
	a, b, link := netsim.Pipe(netsim.LinkConfig{})
	defer link.Close()
	done := make(chan error, 1)
	go func() {
		s, _, err := transport.Accept(b, transport.Hello{Peer: "relay"})
		if err == nil {
			_, err = r.Attach("raw", s)
		}
		done <- err
	}()
	hello, _ := json.Marshal(transport.Hello{Peer: "raw"})
	fw := transport.NewFrameWriter(a)
	fr := transport.NewFrameReader(a)
	if err := fw.WriteFrame(&transport.Frame{Type: transport.TypeHandshake, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if f, err := fr.ReadFrame(); err != nil || f.Type != transport.TypeHandshakeAck {
		t.Fatalf("handshake ack: %+v, %v", f, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(&transport.Frame{Type: transport.FrameType(99), Payload: []byte("???")}); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(&transport.Frame{Type: transport.TypeSemantic, Channel: 1, Payload: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	// The semantic frame arriving at the subscriber orders us after the
	// relay's handling of the unroutable one (same ingress pump).
	f, err := sub.sess.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != transport.TypeSemantic || string(f.Payload) != "ok" {
		t.Fatalf("unexpected frame: %+v", f)
	}
	if got := r.Unroutable(); got != 1 {
		t.Errorf("unroutable = %d, want 1", got)
	}
}
