package core

import (
	"bytes"
	"slices"
	"strconv"
	"testing"
	"time"

	"semholo/internal/compress"
	"semholo/internal/netsim"
	"semholo/internal/obs"
	"semholo/internal/textsem"
	"semholo/internal/transport"
)

// The newest-wins egress tests are deterministic: they never pace by the
// wall clock and never assert on one. A subscriber's downlink is wedged
// with netsim.Stalled (a wedged netsim pipe accepts a frame's header and
// then blocks, so the relay's egress goroutine holds exactly one frame
// "in flight"), frames are published behind it, a ping round trip
// through the relay's ingress pump proves they all reached the leg's
// queue, and the link is resumed. Which frame was in flight depends on
// scheduling; everything asserted holds whichever it was.

// legEvent is one thing a subscriber leg received: a control frame, or
// one whole media frame (wire frames up to the EndOfFrame marker).
type legEvent struct {
	control []byte
	traceID uint64
	frames  []transport.Frame
}

// newestWinsRig is one relay with a publisher and one subscriber whose
// downlink the test stalls and resumes.
type newestWinsRig struct {
	t     *testing.T
	relay *Relay
	pub   *relayParticipant
	sub   *relayParticipant
	// events is everything sub received, in arrival order.
	events <-chan legEvent
	// pubControl is every control frame the relay sent the publisher
	// (tier keyframe requests).
	pubControl <-chan []byte
}

func newNewestWinsRig(t *testing.T, opt RelayOptions, subOpt AttachOptions) *newestWinsRig {
	t.Helper()
	g := &newestWinsRig{t: t, relay: NewRelayOpts(t.Context(), opt)}
	// Publisher first: channel block 0, so subscriber channels arrive
	// un-shifted.
	g.pub = attachParticipant(t, g.relay, "pub")
	g.sub = attachPeer(t, g.relay, "sub", netsim.LinkConfig{}, subOpt)
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		_ = g.relay.Close()
		g.pub.link.Close()
		g.sub.link.Close()
	})

	events := make(chan legEvent)
	go func() {
		defer close(events)
		var pending []transport.Frame
		for {
			f, err := g.sub.sess.Recv()
			if err != nil {
				return
			}
			var ev legEvent
			switch f.Type {
			case transport.TypeControl:
				ev.control = append([]byte{}, f.Payload...)
			case transport.TypeSemantic:
				pending = append(pending, f.Clone())
				if f.Flags&transport.FlagEndOfFrame == 0 {
					continue
				}
				ev, pending = legEvent{traceID: f.TraceID, frames: pending}, nil
			default:
				continue
			}
			select {
			case events <- ev:
			case <-stop:
				return
			}
		}
	}()
	g.events = events

	// The publisher's Recv loop answers nothing but must run: pongs (the
	// barrier) are consumed inside Recv, and keyframe requests surface
	// here.
	pubControl := make(chan []byte)
	go func() {
		for {
			f, err := g.pub.sess.Recv()
			if err != nil {
				return
			}
			if f.Type != transport.TypeControl {
				continue
			}
			select {
			case pubControl <- append([]byte{}, f.Payload...):
			case <-stop:
				return
			}
		}
	}()
	g.pubControl = pubControl
	return g
}

const eventWait = 10 * time.Second

func (g *newestWinsRig) stall()  { g.sub.link.SetBandwidthBtoA(netsim.Stalled) }
func (g *newestWinsRig) resume() { g.sub.link.SetBandwidthBtoA(0) }

// next returns the subscriber's next event.
func (g *newestWinsRig) next() legEvent {
	g.t.Helper()
	select {
	case ev, ok := <-g.events:
		if !ok {
			g.t.Fatal("subscriber session ended")
		}
		return ev
	case <-time.After(eventWait):
		g.t.Fatal("subscriber received nothing")
	}
	return legEvent{}
}

// mediaUntil collects the subscriber's media trace IDs up to and
// including last, failing on any control frame.
func (g *newestWinsRig) mediaUntil(last uint64) []uint64 {
	g.t.Helper()
	var ids []uint64
	for {
		ev := g.next()
		if ev.control != nil {
			g.t.Fatalf("unexpected control frame %q", ev.control)
		}
		ids = append(ids, ev.traceID)
		if ev.traceID == last {
			return ids
		}
	}
}

// barrier returns once every frame the publisher sent before it has
// been enqueued on every subscriber leg: the relay's ingress pump
// handles frames one at a time and answers a ping from inside its next
// Recv, so the pong cannot overtake the broadcast of an earlier frame.
// The publisher receives nothing but pongs in these tests (a keyframe
// request would also end the wait early, and fails the test that
// watches for it).
func (g *newestWinsRig) barrier() {
	g.t.Helper()
	before := g.pub.sess.Stats().FramesReceived
	if err := g.pub.sess.Ping(); err != nil {
		g.t.Fatal(err)
	}
	for deadline := time.Now().Add(eventWait); g.pub.sess.Stats().FramesReceived == before; {
		if time.Now().After(deadline) {
			g.t.Fatal("no pong from the relay")
		}
		time.Sleep(time.Millisecond)
	}
}

// settledStats waits until the leg has accounted for every one of the
// published media frames (the subscriber can hold a frame a moment
// before the relay counts it delivered) and returns its counters.
func (g *newestWinsRig) settledStats(published uint64) RelayPeerStats {
	g.t.Helper()
	deadline := time.Now().Add(eventWait)
	for {
		for _, s := range g.relay.PeerStats() {
			if s.Name != "sub" {
				continue
			}
			if s.Delivered+s.Dropped == published || time.Now().After(deadline) {
				return s
			}
		}
		time.Sleep(time.Millisecond)
	}
}

var syntheticLevels = []transport.RateLevel{{Name: "pose"}, {Name: "pose+texture"}, {Name: "hybrid"}}

// syntheticRungs is the wire shape of NewSemanticLadder's three rungs.
var syntheticRungs = [][]uint16{
	{ChanKeypointData},
	{ChanTextureData, ChanKeypointData},
	{ChanTextureData, ChanKeypointData, ChanFovealMesh},
}

// publishSet ships one synthetic three-rung media frame, every wire
// frame a keyframe — what every rung of the semantic ladder emits.
func (g *newestWinsRig) publishSet(id uint64) {
	g.t.Helper()
	ts := obs.NowMicros()
	var frames []transport.Frame
	for tier, rung := range syntheticRungs {
		for i, ch := range rung {
			flags := transport.FlagKeyframe | transport.FlagTier | transport.FlagTrace | transport.FlagHops
			if i == len(rung)-1 {
				flags |= transport.FlagEndOfFrame
			}
			frames = append(frames, transport.Frame{
				Type: transport.TypeSemantic, Channel: ch, Flags: flags,
				Tier: uint8(tier), TierCount: uint8(len(syntheticRungs)),
				CaptureTS: ts, TraceID: id, Hops: []obs.Hop{{Kind: obs.HopSender, RecvMicros: ts}},
				Payload: []byte{byte(id), byte(tier)},
			})
		}
	}
	if _, err := g.pub.sess.SendBatch(frames); err != nil {
		g.t.Fatal(err)
	}
}

// checkNewestAfterStall asserts the newest-wins shape of what a tiered
// leg delivered across one stall, after served media frames before it:
// ids strictly increase, the last is the newest published, and at most
// the one frame in flight came before it — a one-frame rung leaves in
// three writes and the wedged pipe takes only the first. The one
// exception is a stall that caught the frame carrying the leg's
// capacity ping (served frame 2 of every tierSignalEvery): frame and
// ping leave in a single write, the pipe takes it whole, and the egress
// goroutine goes on to block writing a second frame.
func checkNewestAfterStall(t *testing.T, ids []uint64, newest, served uint64) {
	t.Helper()
	inFlight := 1
	if (served+1)%tierSignalEvery == 2 {
		inFlight = 2
	}
	checkNewestAfterInFlight(t, ids, newest, inFlight)
}

// checkNewestAfterInFlight is checkNewestAfterStall for a leg that can
// have committed inFlight frames to the wire by the time it stalls.
func checkNewestAfterInFlight(t *testing.T, ids []uint64, newest uint64, inFlight int) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("trace IDs not strictly increasing: %v", ids)
		}
	}
	if len(ids) > inFlight+1 || ids[len(ids)-1] != newest {
		t.Fatalf("delivered %v after the stall; want at most %d in flight, then %d", ids, inFlight, newest)
	}
}

// TestRelayTiersNewestWinsAfterStall: a tiered leg that resumes after a
// stall is served the newest media frame, not the backlog.
func TestRelayTiersNewestWinsAfterStall(t *testing.T) {
	g := newNewestWinsRig(t, RelayOptions{TierLevels: syntheticLevels}, AttachOptions{})
	g.publishSet(1)
	if ids := g.mediaUntil(1); len(ids) != 1 {
		t.Fatalf("warm-up delivered %v", ids)
	}

	const newest = 13 // 12 frames behind the stall: no Put eviction at depth 16
	g.stall()
	for id := uint64(2); id <= newest; id++ {
		g.publishSet(id)
	}
	g.barrier()
	g.resume()

	ids := g.mediaUntil(newest)
	checkNewestAfterStall(t, ids, newest, 1)
	delivered := uint64(1 + len(ids))
	st := g.settledStats(newest)
	if st.Delivered != delivered || st.Dropped != newest-delivered {
		t.Errorf("delivered %d dropped %d; want %d and %d (published %d)",
			st.Delivered, st.Dropped, delivered, newest-delivered, newest)
	}
	if st.Queued != 0 {
		t.Errorf("%d frames still queued", st.Queued)
	}
}

// TestRelayNewestWinsKeepsControlInOrder: a control frame queued
// between media frames is a barrier — it is delivered exactly once, the
// media frame before it is never shed across it, and only the media
// frames behind it supersede one another.
func TestRelayNewestWinsKeepsControlInOrder(t *testing.T) {
	g := newNewestWinsRig(t, RelayOptions{TierLevels: syntheticLevels}, AttachOptions{})
	g.publishSet(1)
	g.mediaUntil(1)

	g.stall()
	g.publishSet(2)
	g.publishSet(3)
	if err := g.pub.sess.SendControl([]byte("gaze")); err != nil {
		t.Fatal(err)
	}
	g.publishSet(4)
	g.publishSet(5)
	g.barrier()
	g.resume()

	var got []string
	for {
		ev := g.next()
		if ev.control != nil {
			got = append(got, string(ev.control))
			continue
		}
		got = append(got, strconv.FormatUint(ev.traceID, 10))
		if ev.traceID == 5 {
			break
		}
	}
	// Frame 2 was in flight unless 3 reached the queue before the egress
	// goroutine woke; everything from 3 on is fixed.
	if len(got) == 4 && got[0] == "2" {
		got = got[1:]
	}
	if !slices.Equal(got, []string{"3", "gaze", "5"}) {
		t.Fatalf("delivered %v, want [2] 3 gaze 5", got)
	}
}

// TestRelayNewestWinsNeverSkipsDeltas: a delta-coded stream (TextEncoder
// ships a keyframe, then deltas against it) is never superseded — a
// receiver needs every delta — so a stalled leg delivers the whole
// backlog, in order, up to the queue bound.
func TestRelayNewestWinsNeverSkipsDeltas(t *testing.T) {
	g := newNewestWinsRig(t, RelayOptions{}, AttachOptions{})
	enc := &TextEncoder{Captioner: textsem.Captioner{}, Codec: compress.LZR(), KeyframeInterval: 1000}
	sender := &Sender{Session: g.pub.sess}
	var sent [][]byte
	publish := func(i int, wantKeyframe bool) {
		t.Helper()
		ef, err := enc.Encode(testSeq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		if kf := ef.Channels[0].Flags&transport.FlagKeyframe != 0; len(ef.Channels) != 1 || kf != wantKeyframe {
			t.Fatalf("frame %d: %d channels, keyframe=%v", i, len(ef.Channels), kf)
		}
		sent = append(sent, append([]byte{}, ef.Channels[0].Payload...))
		if err := sender.Transmit(ef, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	publish(0, true)
	if ev := g.next(); !bytes.Equal(ev.frames[0].Payload, sent[0]) {
		t.Fatal("keyframe payload mismatch")
	}

	g.stall()
	for i := 1; i <= DefaultRelayQueueDepth; i++ {
		publish(i, false)
	}
	g.barrier()
	g.resume()
	for i := 1; i <= DefaultRelayQueueDepth; i++ {
		if ev := g.next(); ev.control != nil || !bytes.Equal(ev.frames[0].Payload, sent[i]) {
			t.Fatalf("delta %d skipped or reordered", i)
		}
	}
	if st := g.settledStats(uint64(len(sent))); st.Dropped != 0 {
		t.Errorf("delta stream shed %d frames", st.Dropped)
	}
}

// TestRelayTrunkSupersedesWholeLadders: a trunk egress leg forwards
// every rung of a media frame, so newest-wins sheds and serves whole
// ladders — a downstream shard never sees a media frame missing a rung.
//
// A trunk leg writes a whole ladder in one connection write, so across a
// stall it has committed up to two ladders, not one: the wedged pipe
// accepted one write whole and holds it parked, and the egress goroutine
// went on to dequeue the next ladder and sits blocked in its Write.
// (When each wire frame was its own write the pipe took only the first
// header, so exactly one ladder was in flight.) Both are delivered in
// order on resume, then the newest; everything between is shed.
func TestRelayTrunkSupersedesWholeLadders(t *testing.T) {
	g := newNewestWinsRig(t, RelayOptions{TierLevels: syntheticLevels}, AttachOptions{TrunkEgress: true})
	// On a trunk every rung's closing frame ends a legEvent; a ladder is
	// one event per rung, all with the media frame's trace ID.
	ladderUntil := func(last uint64) []uint64 {
		t.Helper()
		var ids []uint64
		for {
			var id uint64
			for tier, rung := range syntheticRungs {
				ev := g.next()
				if tier == 0 {
					id = ev.traceID
				}
				if ev.traceID != id || len(ev.frames) != len(rung) || int(ev.frames[0].Tier) != tier {
					t.Fatalf("media frame %d: want rung %d (%d wire frames), got %+v", id, tier, len(rung), ev)
				}
			}
			ids = append(ids, id)
			if id == last {
				return ids
			}
		}
	}
	g.publishSet(1)
	ladderUntil(1)

	const newest = 9
	g.stall()
	for id := uint64(2); id <= newest; id++ {
		g.publishSet(id)
	}
	g.barrier()
	g.resume()

	ids := ladderUntil(newest)
	checkNewestAfterInFlight(t, ids, newest, 2)
	delivered := uint64(1 + len(ids))
	if st := g.settledStats(newest); st.Delivered != delivered || st.Dropped != newest-delivered {
		t.Errorf("delivered %d dropped %d; want %d and %d", st.Delivered, st.Dropped, delivered, newest-delivered)
	}
}

// TestRelayTiersStarvedLegHoldsTierZero: a leg that cannot keep up with
// rung 0 has no standing backlog for its TierSelector to see any more,
// so the shedding itself must reach the selector on the very dequeue
// that shed. UpDwell is one nanosecond: any two consecutive calm
// decisions probe upward, and a dequeue that superseded frames but
// reported a stale, calm drop window would be the second of them.
func TestRelayTiersStarvedLegHoldsTierZero(t *testing.T) {
	g := newNewestWinsRig(t, RelayOptions{
		TierLevels: syntheticLevels,
		NewTierSelector: func(levels []transport.RateLevel) *transport.TierSelector {
			s := transport.NewTierSelector(levels)
			s.UpDwell = time.Nanosecond
			return s
		},
	}, AttachOptions{})

	// Each cycle is the starved leg's steady state in miniature: three
	// frames offered per stall, at most two delivered. Enough cycles to
	// cross the cadence refresh (tierSignalEvery served frames) twice.
	id, served := uint64(0), uint64(0)
	for cycle := 0; cycle < tierSignalEvery; cycle++ {
		g.stall()
		for i := 0; i < 3; i++ {
			id++
			g.publishSet(id)
		}
		g.barrier()
		g.resume()
		ids := g.mediaUntil(id)
		checkNewestAfterStall(t, ids, id, served)
		served += uint64(len(ids))
	}

	st := g.settledStats(id)
	if st.Dropped == 0 {
		t.Fatal("leg shed nothing: the cycles did not starve it")
	}
	if st.Tier != 0 || st.TierSwitches != 0 {
		t.Errorf("starved leg at tier %d after %d switches, want tier 0 held throughout", st.Tier, st.TierSwitches)
	}
	select {
	case req := <-g.pubControl:
		t.Errorf("starved leg sent the publisher %q", req)
	default:
	}
}
