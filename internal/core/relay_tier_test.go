package core

import (
	"testing"
	"time"

	"semholo/internal/compress"
	"semholo/internal/netsim"
	"semholo/internal/transport"
)

// TestRelayTiersPerSubscriber is the heterogeneous-link end-to-end
// test: one publisher ships a three-rung semantic ladder through a
// tiering relay to two subscribers — one on a 25 Mbps broadband leg,
// one on a 200 kbps leg. The legs must independently converge to
// different rungs (broadband to the full hybrid tier, the starved leg
// to keypoints-only), every delivered tier change must carry the
// tier-switch marker, and every delivered media frame must decode
// without error on a tier-switch-resetting receiver.
func TestRelayTiersPerSubscriber(t *testing.T) {
	ladder, sel, anchor := newSemanticLadderFixture(t)
	relay := NewRelayOpts(t.Context(), RelayOptions{
		TierLevels: ladder.Levels(),
		// Tuned for test wall-clock: probe quickly, and once a rung
		// fails bar it past the end of the stream so the starved leg's
		// converged tier is deterministic.
		NewTierSelector: func(levels []transport.RateLevel) *transport.TierSelector {
			s := transport.NewTierSelector(levels)
			s.UpDwell = 200 * time.Millisecond
			s.Backoff = 30 * time.Second
			s.BackoffMax = 30 * time.Second
			return s
		},
	})
	defer relay.Close()

	// Publisher first: channel block 0, so subscriber channels arrive
	// un-shifted.
	pub := attachParticipant(t, relay, "pub")
	fast := attachPeer(t, relay, "fast", netsim.LinkConfig{Bandwidth: 25e6, Delay: 5 * time.Millisecond}, AttachOptions{})
	slow := attachPeer(t, relay, "slow", netsim.LinkConfig{Bandwidth: 200e3, Delay: 20 * time.Millisecond}, AttachOptions{})
	defer pub.link.Close()
	defer fast.link.Close()
	defer slow.link.Close()

	sender := &Sender{Session: pub.sess}
	sender.OnKeyframeRequest = ladder.RequestKeyframe
	// Drain the publisher's inbound side: pongs are answered inside
	// Recv, and relayed keyframe requests land on the control plane.
	go func() {
		for {
			f, err := pub.sess.Recv()
			if err != nil {
				return
			}
			if f.Type == transport.TypeControl {
				_ = sender.HandleControl(f)
			}
		}
	}()

	type legResult struct {
		raws []RawFrame
		err  error
	}
	collect := func(p *relayParticipant) chan legResult {
		ch := make(chan legResult, 1)
		go func() {
			r := &Receiver{Session: p.sess}
			var out []RawFrame
			for {
				raw, err := r.NextRaw()
				if err != nil {
					ch <- legResult{out, err}
					return
				}
				out = append(out, raw)
			}
		}()
		return ch
	}
	fastCh := collect(fast)
	slowCh := collect(slow)

	const frames = 80
	for i := 0; i < frames; i++ {
		lf, err := ladder.EncodeAll(testSeq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := sender.TransmitLadder(lf, time.Now()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	time.Sleep(400 * time.Millisecond) // drain in-flight fan-out

	stats := map[string]RelayPeerStats{}
	for _, s := range relay.PeerStats() {
		stats[s.Name] = s
	}
	if err := relay.Close(); err != nil {
		t.Fatalf("relay close: %v", err)
	}
	fastLeg, slowLeg := <-fastCh, <-slowCh

	if got := stats["fast"].Tier; got != 2 {
		t.Errorf("broadband leg converged to tier %d, want 2 (full hybrid)", got)
	}
	if got := stats["slow"].Tier; got != 0 {
		t.Errorf("200 kbps leg converged to tier %d, want 0 (keypoints-only)", got)
	}
	if stats["fast"].TierSwitches < 2 {
		t.Errorf("broadband leg made %d switches, want ≥2 (0→1→2)", stats["fast"].TierSwitches)
	}
	// The starved leg sheds frames only while probing above its rate
	// (once settled on tier 0 the stream fits in 200 kbps — that is the
	// point of tiering), so drops are timing-dependent: assert the leg
	// responded to saturation, by degradation or by shedding.
	if stats["slow"].Dropped == 0 && len(slowLeg.raws) == frames && stats["slow"].Tier != 0 {
		t.Error("starved leg neither degraded nor shed — link not actually saturated?")
	}
	if len(fastLeg.raws) == 0 || len(slowLeg.raws) == 0 {
		t.Fatalf("deliveries: fast %d, slow %d", len(fastLeg.raws), len(slowLeg.raws))
	}

	// Per-leg wire discipline and artifact-free decode.
	for _, leg := range []struct {
		name string
		res  legResult
	}{{"fast", fastLeg}, {"slow", slowLeg}} {
		kpDec := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 0, WarmStart: true}
		hyDec := &HybridDecoder{Model: testModel, Codec: compress.LZR(), PeripheralResolution: 16, Selector: sel, WarmStart: true}
		hyDec.SetGazeAnchor(anchor)
		rcv := &Receiver{Decoder: &AdaptiveDecoder{Keypoint: kpDec, Hybrid: hyDec}}

		prevTier := -1
		tierServed := map[int]int{}
		for i, raw := range leg.res.raws {
			tier, switched := -1, false
			for _, f := range raw.Frames {
				if !f.Tiered() {
					t.Fatalf("%s frame %d: untiered wire frame on a tiering relay", leg.name, i)
				}
				if tier >= 0 && int(f.Tier) != tier {
					t.Fatalf("%s frame %d: mixed tiers %d and %d in one media frame", leg.name, i, tier, f.Tier)
				}
				tier = int(f.Tier)
				if f.Flags&transport.FlagTierSwitch != 0 {
					switched = true
				}
			}
			tierServed[tier]++
			if prevTier >= 0 && tier != prevTier && !switched {
				t.Fatalf("%s frame %d: tier changed %d→%d without a tier-switch marker", leg.name, i, prevTier, tier)
			}
			prevTier = tier
			if _, err := rcv.DecodeRaw(raw); err != nil {
				t.Fatalf("%s frame %d (tier %d): decode: %v", leg.name, i, tier, err)
			}
		}
		t.Logf("%s: %d frames, tiers served %v", leg.name, len(leg.res.raws), tierServed)
	}

	// The starved leg must have spent its stream on the cheap rung.
	slowCounts := map[int]int{}
	for _, raw := range slowLeg.raws {
		slowCounts[int(raw.Frames[0].Tier)]++
	}
	if slowCounts[0] <= slowCounts[1]+slowCounts[2] {
		t.Errorf("starved leg tier mix %v: tier 0 not dominant", slowCounts)
	}
}
