package transport

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"semholo/internal/netsim"
	"semholo/internal/obs"
)

// capacityRead runs the relay's measurement on one netsim leg: an
// unloaded ping, then a frame interval later a rung-0 frame (≈420 wire
// bytes, the semantic ladder's quantised pose) with a trailing ping, and
// returns the median of samples capacity readings. The reverse direction
// carries the same delay and no bandwidth limit, as a subscriber's pongs
// see it. The viewer spends decode on every media frame Recv returns
// before it calls Recv again, as a viewer that decodes and renders
// inline does.
func capacityRead(t *testing.T, down netsim.LinkConfig, decode time.Duration, samples int) float64 {
	t.Helper()
	a, b, link := netsim.AsymmetricPipe(down, netsim.LinkConfig{Delay: down.Delay})
	defer link.Close()
	type hs struct {
		s   *Session
		err error
	}
	ch := make(chan hs, 1)
	go func() {
		s, _, err := Accept(b, Hello{Peer: "viewer"})
		ch <- hs{s, err}
	}()
	relay, _, err := Dial(a, Hello{Peer: "relay"})
	if err != nil {
		t.Fatal(err)
	}
	h := <-ch
	if h.err != nil {
		t.Fatal(h.err)
	}
	viewer := h.s
	defer relay.Close()
	defer viewer.Close()
	// The viewer answers pings from its Recv loop; the relay's Recv loop
	// takes the pongs.
	for _, s := range []*Session{viewer, relay} {
		go func() {
			for {
				f, err := s.Recv()
				if err != nil {
					return
				}
				if s == viewer && f.Type == TypeSemantic {
					time.Sleep(decode)
				}
			}
		}()
	}
	awaitPongs := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); relay.Stats().FramesReceived < n; {
			if time.Now().After(deadline) {
				t.Fatal("no pong")
			}
			time.Sleep(time.Millisecond)
		}
	}

	set, _ := sharedLadder(t, 104) // 312 payload bytes
	rung := set[:1]
	if n := rung[0].WireLenEgress(); n < 400 || n > 440 {
		t.Fatalf("rung-0 frame is %d wire bytes, want ≈420", n)
	}
	egress := obs.Hop{Kind: obs.HopRelayEgress, Site: 1}
	var reads []float64
	pongs := relay.Stats().FramesReceived
	for i := 0; i < samples; i++ {
		if err := relay.Ping(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(33 * time.Millisecond)
		if _, err := relay.SendSharedBatch(rung, SharedSendOpts{Egress: &egress, TrailingPing: true}); err != nil {
			t.Fatal(err)
		}
		pongs += 2
		awaitPongs(pongs)
		reads = append(reads, relay.Capacity())
	}
	slices.Sort(reads)
	t.Logf("%.0f kbps/%v leg, %v decode: capacity reads %.0f bps", down.Bandwidth/1e3, down.Delay, decode, reads)
	return reads[len(reads)/2]
}

// TestTierCapacityReadWithinThirtyPercent pins the capacity sample on the
// legs the selector must tell apart: a 200 kbps/20 ms leg below the
// ladder's rung 1 and a 1 Mbps/40 ms leg between rungs 1 and 2 read
// within ±30 % of their bandwidth. netsim holds the link at least one
// timer tick per write, so this holds only because the frame and its
// ping share one write: a ping written behind the frame's own writes
// reads the 1 Mbps leg ≈40 % low. It holds as well for a viewer that
// spends 10 ms decoding each frame before it reads the ping behind it —
// twice the rung-0 frame's time on the 1 Mbps wire — because the pong
// reports that hold and the sample leaves it out.
func TestTierCapacityReadWithinThirtyPercent(t *testing.T) {
	for _, down := range []netsim.LinkConfig{
		{Bandwidth: 200e3, Delay: 20 * time.Millisecond},
		{Bandwidth: 1e6, Delay: 40 * time.Millisecond},
	} {
		for _, decode := range []time.Duration{0, 10 * time.Millisecond} {
			t.Run(fmt.Sprintf("%v/decode-%v", down.Delay, decode), func(t *testing.T) {
				t.Parallel()
				got := capacityRead(t, down, decode, 7)
				if got < 0.7*down.Bandwidth || got > 1.3*down.Bandwidth {
					t.Errorf("%.0f bps leg read as %.0f bps, want within ±30 %%", down.Bandwidth, got)
				}
			})
		}
	}
}

// TestTierCapacityNeedsUnloadedSample: a trailing ping answered before
// any unloaded ping has nothing to subtract, and its pong leaves the leg
// without evidence rather than with a guess.
func TestTierCapacityNeedsUnloadedSample(t *testing.T) {
	s := newSession(newDiscardConn())
	set, _ := sharedLadder(t, 104)
	if _, err := s.SendSharedBatch(set[:1], SharedSendOpts{TrailingPing: true}); err != nil {
		t.Fatal(err)
	}
	s.handlePong(Frame{Type: TypePong, Payload: []byte{0, 0, 0, 1}})
	if got := s.Capacity(); got != 0 {
		t.Errorf("capacity %.0f bps with no unloaded RTT, want 0 (no evidence)", got)
	}
	if len(s.outstandingPings()) != 0 {
		t.Error("answered trailing ping still outstanding")
	}
}

// TestSendSharedBatchTrailingPingAllocs pins a tiered cadence send — a
// rung and its trailing ping in one write — at zero allocations in
// steady state, for a one-frame rung (which the ping moves onto the
// batch path) and for the three-frame top rung.
func TestSendSharedBatchTrailingPingAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; skipped in -short")
	}
	s := newSession(newDiscardConn())
	set, topRung := sharedLadder(t, 1500)
	egress := obs.Hop{Kind: obs.HopRelayEgress, Site: 1, RecvMicros: 1300}
	for name, rung := range map[string][]*SharedFrame{"rung-0": set[:1], "top-rung": topRung} {
		send := func() {
			if _, err := s.SendSharedBatch(rung, SharedSendOpts{Egress: &egress, TrailingPing: true}); err != nil {
				t.Fatal(err)
			}
		}
		send() // warm the buffer and the seq map
		if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
			t.Errorf("%s: %.1f allocs per cadence send, want 0", name, allocs)
		}
	}
}
