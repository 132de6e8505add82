package core

import (
	"slices"
	"testing"
	"time"

	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// The capacity tests run a publisher and a tiering leg over a netsim
// link (or two participants that both publish), with the semantic ladder's real rung sizes: ≈420, 2 070 and
// 7 350 egress wire bytes per media frame at 30 fps — measured demand
// ≈0.10 / 0.50 / 1.76 Mbps. The selector probes every 250 ms of calm,
// so each run spans more than ten UpDwells. What they assert is which
// rungs the leg probes, never a timing.

// capacityRungs are the payload sizes of each rung's wire frames
// (texture, pose, foveal mesh), shaped like syntheticRungs.
var capacityRungs = [][]int{{311}, {1544, 311}, {1544, 311, 5170}}

const capacityUpDwell = 250 * time.Millisecond

// capacityParty is one client of a capacity test's relay: its downlink
// (the uplink is unconstrained), whether it publishes the ladder, and how
// long it spends on each media frame it receives before it reads on — a
// stand-in for a viewer that decodes and renders inline.
type capacityParty struct {
	name      string
	down      netsim.LinkConfig
	publishes bool
	decode    time.Duration
}

// runCapacityRoom runs one tiering relay with the given parties: every
// publisher sends frames media frames at 30 fps, every party reads what
// the relay sends it. It returns each party's leg counters, by name,
// once they have settled.
func runCapacityRoom(t *testing.T, parties []capacityParty, frames int) map[string]RelayPeerStats {
	t.Helper()
	relay := NewRelayOpts(t.Context(), RelayOptions{
		TierLevels: syntheticLevels,
		NewTierSelector: func(levels []transport.RateLevel) *transport.TierSelector {
			s := transport.NewTierSelector(levels)
			s.UpDwell = capacityUpDwell
			return s
		},
	})
	defer relay.Close()
	var pubs []*transport.Session
	for _, party := range parties {
		c := attachPeer(t, relay, party.name, party.down, AttachOptions{})
		defer c.link.Close()
		if party.publishes {
			pubs = append(pubs, c.sess)
		}
		// Every party keeps reading: it answers the relay's pings and
		// takes pongs and any keyframe request.
		go func() {
			for {
				f, err := c.sess.Recv()
				if err != nil {
					return
				}
				if f.Flags&transport.FlagEndOfFrame != 0 {
					time.Sleep(party.decode)
				}
			}
		}()
	}

	tick := time.NewTicker(time.Second / 30)
	defer tick.Stop()
	for id := uint64(1); id <= uint64(frames); id++ {
		<-tick.C
		ts := obs.NowMicros()
		var batch []transport.Frame
		for tier, rung := range capacityRungs {
			for i, size := range rung {
				flags := transport.FlagKeyframe | transport.FlagTier | transport.FlagTrace | transport.FlagHops
				if i == len(rung)-1 {
					flags |= transport.FlagEndOfFrame
				}
				batch = append(batch, transport.Frame{
					Type: transport.TypeSemantic, Channel: syntheticRungs[tier][i], Flags: flags,
					Tier: uint8(tier), TierCount: uint8(len(capacityRungs)),
					CaptureTS: ts, TraceID: id, Hops: []obs.Hop{{Kind: obs.HopSender, RecvMicros: ts}},
					Payload: make([]byte, size),
				})
			}
		}
		for _, pub := range pubs {
			if _, err := pub.SendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(300 * time.Millisecond) // let the last frames drain
	stats := map[string]RelayPeerStats{}
	for _, s := range relay.PeerStats() {
		stats[s.Name] = s
		if s.Tier < 0 {
			continue // received no tiered set
		}
		t.Logf("%s: rung %d after %d switches, %d delivered, %d shed, capacity %.0f bps",
			s.Name, s.Tier, s.TierSwitches, s.Delivered, s.Dropped, s.CapacityBps)
	}
	return stats
}

// runCapacityLeg runs one publisher and one subscriber leg on down that
// spends decode on every media frame, and returns the leg's counters.
func runCapacityLeg(t *testing.T, down netsim.LinkConfig, decode time.Duration, frames int) RelayPeerStats {
	t.Helper()
	return runCapacityRoom(t, []capacityParty{
		{name: "pub", publishes: true},
		{name: "sub", down: down, decode: decode},
	}, frames)["sub"]
}

// TestRelayTiersCapacityHoldsStarvedLeg: a calm 200 kbps leg carries
// rung 0 at half its bandwidth, and its capacity sample says rung 1
// (≈0.5 Mbps) does not fit, so across ten UpDwells it never probes. A
// selector without the sample probes after the first dwell and fails.
func TestRelayTiersCapacityHoldsStarvedLeg(t *testing.T) {
	t.Parallel()
	frames := int(11 * capacityUpDwell / (time.Second / 30))
	st := runCapacityLeg(t, netsim.LinkConfig{Bandwidth: 200e3, Delay: 20 * time.Millisecond}, 0, frames)
	if st.CapacityBps <= 0 || st.CapacityBps > 300e3 {
		t.Errorf("capacity sample %.0f bps, want a reading of the 200 kbps leg", st.CapacityBps)
	}
	if st.Tier != 0 || st.TierSwitches != 0 {
		t.Errorf("leg at rung %d after %d switches, want rung 0 and no probe", st.Tier, st.TierSwitches)
	}
}

// TestRelayTiersCapacityStopsAtRungOne: a 1 Mbps/40 ms leg carries rung 1
// but not rung 2 (≈1.76 Mbps): it climbs once and never probes higher.
// Its viewer spends 10 ms on every frame before it reads the capacity
// ping behind it — longer than a rung-0 frame spends on the wire — and
// the sample leaves that time out.
func TestRelayTiersCapacityStopsAtRungOne(t *testing.T) {
	t.Parallel()
	st := runCapacityLeg(t, netsim.LinkConfig{Bandwidth: 1e6, Delay: 40 * time.Millisecond}, 10*time.Millisecond, 120)
	if st.Tier != 1 || st.TierSwitches != 1 {
		t.Errorf("leg at rung %d after %d switches, want rung 1 after one", st.Tier, st.TierSwitches)
	}
}

// TestRelayTiersCapacityTwoParty: in a two-party call each participant
// publishes and subscribes, and each leg carries only the other's
// stream, so on 1 Mbps/40 ms legs both climb to rung 1 — as one
// subscriber does — and stop there. A room-wide demand would count both
// streams against each leg and hold both at rung 0.
func TestRelayTiersCapacityTwoParty(t *testing.T) {
	t.Parallel()
	down := netsim.LinkConfig{Bandwidth: 1e6, Delay: 40 * time.Millisecond}
	stats := runCapacityRoom(t, []capacityParty{
		{name: "alice", down: down, publishes: true},
		{name: "bob", down: down, publishes: true},
	}, 120)
	for _, name := range []string{"alice", "bob"} {
		if st := stats[name]; st.Tier != 1 || st.TierSwitches != 1 {
			t.Errorf("%s's leg at rung %d after %d switches, want rung 1 after one", name, st.Tier, st.TierSwitches)
		}
	}
}

// TestRelayTiersCapacityClimbsBroadband: a 25 Mbps leg's capacity covers
// every rung, so it climbs to rung 2.
func TestRelayTiersCapacityClimbsBroadband(t *testing.T) {
	t.Parallel()
	st := runCapacityLeg(t, netsim.LinkConfig{Bandwidth: 25e6, Delay: 5 * time.Millisecond}, 0, 90)
	if st.Tier != 2 || st.TierSwitches != 2 {
		t.Errorf("leg at rung %d after %d switches, want rung 2 after two", st.Tier, st.TierSwitches)
	}
}

// tieredSet builds one complete media frame of keyframe rungs with the
// given payload sizes, cheapest first.
func tieredSet(t *testing.T, payloads ...int) *transport.SharedFrameSet {
	t.Helper()
	set, err := transport.NewSharedFrameSet(len(payloads))
	if err != nil {
		t.Fatal(err)
	}
	for tier, n := range payloads {
		sf, err := transport.NewSharedFrame(transport.TypeSemantic, 1,
			transport.FlagTier|transport.FlagKeyframe|transport.FlagEndOfFrame, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		sf.Tier, sf.TierCount = uint8(tier), uint8(len(payloads))
		if err := set.Add(sf); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// TestRelayTiersDemandMeasuredAtIngress: each set of a stream is stamped
// with every rung's egress wire bytes at the stream's frame rate, and a
// publisher's pause counts as at most a second.
func TestRelayTiersDemandMeasuredAtIngress(t *testing.T) {
	const overhead = 24 + 2 + 4 // header, tier extension, trailer
	var m demandMeter
	t0 := time.Now()
	first := tieredSet(t, 400, 2000)
	m.stamp(first, t0)
	if d := first.Demand(); d[0] != 0 || d[1] != 0 {
		t.Fatalf("one set measured demand %v; a rate needs two", d)
	}
	var last *transport.SharedFrameSet
	for i := 1; i <= 60; i++ {
		last = tieredSet(t, 400, 2000)
		m.stamp(last, t0.Add(time.Duration(i)*time.Second/30))
	}
	for tier, payload := range []int{400, 2000} {
		want := float64(payload+overhead) * 8 * 30
		if got := last.Demand()[tier]; got < 0.99*want || got > 1.01*want {
			t.Errorf("rung %d demand %.0f bps, want %.0f", tier, got, want)
		}
	}
	if got := first.Demand()[0]; got != 0 {
		t.Errorf("a stamped set changed afterwards: %.0f", got)
	}
	// A minute's pause is one second's gap: demand dips by at most the
	// weight of one sample, it is not wiped out.
	paused := tieredSet(t, 400, 2000)
	m.stamp(paused, t0.Add(62*time.Second))
	if got, floor := paused.Demand()[0], float64(400+overhead)*8*30/5; got < floor {
		t.Errorf("demand after a pause %.0f bps, want ≥ %.0f", got, floor)
	}
}

// TestRelayTiersLegDemandSumsServedStreams: a leg's demand for a rung is
// the sum of that rung's demand over the streams it serves — a stream's
// newer set replaces its older one, and a stream silent for longer than
// demandGapMax drops out.
func TestRelayTiersLegDemandSumsServedStreams(t *testing.T) {
	alice, bob := &relayPeer{name: "alice"}, &relayPeer{name: "bob"}
	item := func(from *relayPeer, demand ...float64) egressItem {
		set := tieredSet(t, 400, 2000)
		set.SetDemand(demand)
		return egressItem{set: set, from: from}
	}
	var st tierEgressState
	t0 := time.Now()
	for _, step := range []struct {
		it   egressItem
		at   time.Duration
		want []float64
	}{
		{item(alice, 100, 1000), 0, []float64{100, 1000}},
		{item(bob, 200, 2000), 10 * time.Millisecond, []float64{300, 3000}},
		{item(alice, 150, 1500), 20 * time.Millisecond, []float64{350, 3500}},
		{item(alice, 150, 1500), 20*time.Millisecond + demandGapMax + time.Millisecond, []float64{150, 1500}},
	} {
		if got := st.legDemand(step.it, t0.Add(step.at)); !slices.Equal(got, step.want) {
			t.Errorf("at %v (%s's set): leg demand %v, want %v", step.at, step.it.from.name, got, step.want)
		}
	}
	if len(st.streams) != 1 {
		t.Errorf("%d streams tracked after bob fell silent, want 1", len(st.streams))
	}
}
