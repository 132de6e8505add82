// Adaptive: rate adaptation across the taxonomy (§3.2's end goal), on
// the product path. The publisher encodes every capture at each rung of
// a semantic ladder — text → keypoint → traditional mesh — and ships all
// rungs to a tiering relay; the relay's egress leg to the viewer runs
// its own TierSelector over that ladder and serves the rung the leg can
// carry. The viewer's link collapses mid-session and then recovers (a
// congestion episode): the leg steps down the ladder after the collapse
// and probes back up after the recovery, switching only on keyframe
// boundaries, and the viewer demultiplexes whatever rung arrives without
// out-of-band signaling (each pipeline owns its channels).
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"semholo"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/keypoint"
	"semholo/internal/netsim"
	"semholo/internal/textsem"
	"semholo/internal/transport"
)

// The congestion episode on the viewer's leg, one phase after another.
var phases = []struct {
	name   string
	bps    float64
	frames int
}{
	{"plentiful", 100e6, 40},
	{"collapse", 0.25e6, 40},
	{"recovery", 100e6, 80},
}

const frameInterval = 25 * time.Millisecond

// delivery is one media frame as the viewer received it, tagged with
// the phase the link was in when it arrived.
type delivery struct {
	raw   core.RawFrame
	phase int
}

func main() {
	world := semholo.NewWorld(semholo.WorldOptions{Seed: 31})

	// The adaptation ladder, cheapest first.
	ladder, err := core.NewTierLadder([]core.Tier{
		{Name: "text", Bitrate: 0.05e6, Encoder: &core.TextEncoder{
			Captioner: textsem.Captioner{CellSize: 0.25, Precision: 2},
			Codec:     compress.LZR(),
		}},
		{Name: "keypoint", Bitrate: 0.4e6, Encoder: &core.KeypointEncoder{
			Model:    world.Model,
			Detector: keypoint.NewDetector(keypoint.DefaultDetector()),
			Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
			Codec:    compress.LZR(),
		}},
		{Name: "traditional", Bitrate: 3e6, Encoder: &core.TraditionalEncoder{}},
	})
	if err != nil {
		log.Fatal(err)
	}
	levels := ladder.Levels()

	relay := core.NewRelayOpts(context.Background(), core.RelayOptions{TierLevels: levels})
	defer relay.Close()
	pub, pubLink := dial(relay, "publisher", netsim.LinkConfig{})
	defer pubLink.Close()
	view, viewLink := dial(relay, "viewer", netsim.LinkConfig{Bandwidth: phases[0].bps, Delay: 10 * time.Millisecond})
	defer viewLink.Close()

	// A relay preparing a switch onto a delta-coded rung (text) asks the
	// publisher for a keyframe at that rung over the control plane.
	sender := &core.Sender{Session: pub, OnKeyframeRequest: ladder.RequestKeyframe}
	go func() {
		for {
			f, err := pub.Recv()
			if err != nil {
				return
			}
			if f.Type == transport.TypeControl {
				_ = sender.HandleControl(f)
			}
		}
	}()

	// The viewer collects frames as they arrive and decodes afterwards,
	// so decode time never backpressures the leg being measured.
	var phase atomic.Int32
	got := make(chan []delivery, 1)
	go func() {
		r := &core.Receiver{Session: view}
		var out []delivery
		for {
			raw, err := r.NextRaw()
			if err != nil {
				got <- out
				return
			}
			out = append(out, delivery{raw, int(phase.Load())})
		}
	}()

	i := 0
	for p, ph := range phases {
		phase.Store(int32(p))
		viewLink.SetBandwidth(ph.bps)
		for end := i + ph.frames; i < end; i++ {
			lf, err := ladder.EncodeAll(world.FrameAt(i))
			if err != nil {
				log.Fatalf("frame %d: %v", i, err)
			}
			if err := sender.TransmitLadder(lf, time.Now()); err != nil {
				log.Fatalf("frame %d: %v", i, err)
			}
			time.Sleep(frameInterval)
		}
	}
	time.Sleep(400 * time.Millisecond) // drain in-flight fan-out
	var leg core.RelayPeerStats
	for _, s := range relay.PeerStats() {
		if s.Name == "viewer" {
			leg = s
		}
	}
	if err := relay.Close(); err != nil {
		log.Fatalf("relay close: %v", err)
	}
	delivered := <-got

	// Decode in arrival order in the viewer's decode-service tenant, which
	// resets its decoder on every tier-switch marker, exactly as a live
	// viewer's would.
	svc := semholo.NewDecodeService(semholo.ServiceOptions{
		NewDecoder: func(semholo.ServiceOptions) semholo.Decoder {
			return &core.AdaptiveDecoder{
				Text:        &core.TextDecoder{Codec: compress.LZR()},
				Keypoint:    &core.KeypointDecoder{Model: world.Model, Codec: compress.LZR()},
				Traditional: &core.TraditionalDecoder{},
			}
		},
	})
	defer svc.Close()
	tenant, err := svc.Admit("viewer")
	if err != nil {
		log.Fatal(err)
	}
	served := make([]map[string]int, len(phases))
	for p := range served {
		served[p] = map[string]int{}
	}
	prev := -1
	for n, d := range delivered {
		tier := int(d.raw.Frames[0].Tier)
		data, err := tenant.Decode(context.Background(), d.raw)
		if err != nil {
			log.Fatalf("delivered frame %d (tier %d): decode: %v", n, tier, err)
		}
		if tier != prev {
			from := "-"
			if prev >= 0 {
				from = levels[prev].Name
			}
			fmt.Printf("frame %3d  %-9s link %6.2f Mbps  %-11s -> %-11s %s\n",
				n, phases[d.phase].name, phases[d.phase].bps/1e6, from, levels[tier].Name, describe(data))
			prev = tier
		}
		served[d.phase][levels[tier].Name]++
	}

	fmt.Println()
	for p, ph := range phases {
		fmt.Printf("%-9s %6.2f Mbps: rungs served", ph.name, ph.bps/1e6)
		for _, l := range levels {
			fmt.Printf("  %s %d", l.Name, served[p][l.Name])
		}
		fmt.Println()
	}
	fmt.Printf("viewer leg: %d/%d frames delivered and decoded, %d tier switches, %d shed, final rung %s\n",
		len(delivered), i, leg.TierSwitches, leg.Dropped, levels[leg.Tier].Name)
}

// dial connects one participant to the relay over an emulated link and
// returns the participant's end of the session.
func dial(relay *core.Relay, name string, cfg netsim.LinkConfig) (*transport.Session, *netsim.Link) {
	a, b, link := netsim.Pipe(cfg)
	attached := make(chan error, 1)
	go func() {
		s, _, err := transport.Accept(b, transport.Hello{Peer: "relay"})
		if err == nil {
			_, err = relay.Attach(name, s)
		}
		attached <- err
	}()
	sess, _, err := transport.Dial(a, transport.Hello{Peer: name})
	if err == nil {
		err = <-attached
	}
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return sess, link
}

func describe(d core.FrameData) string {
	switch {
	case d.Mesh != nil:
		return fmt.Sprintf("[mesh %dv]", len(d.Mesh.Vertices))
	case d.Params != nil:
		return "[pose params]"
	case d.Cloud != nil:
		return fmt.Sprintf("[cloud %dpt]", d.Cloud.Len())
	default:
		return "[empty]"
	}
}
