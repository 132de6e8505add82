package core

import (
	"context"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"semholo/internal/compress"
	"semholo/internal/geom"
	"semholo/internal/netsim"
	"semholo/internal/transport"
)

// relayParticipant is one attached test client.
type relayParticipant struct {
	name string
	sess *transport.Session
	link *netsim.Link
	idx  int // channel block the relay handed out
}

func attachParticipant(t *testing.T, r *Relay, name string) *relayParticipant {
	t.Helper()
	return attachPeer(t, r, name, netsim.LinkConfig{}, AttachOptions{})
}

// attachPeer dials one test client into the relay over an asymmetric
// link — the relay→client direction (the leg that carries the fan-out)
// gets down; the uplink stays unconstrained so control frames and pongs
// return promptly — and attaches it in the given role.
func attachPeer(t *testing.T, r *Relay, name string, down netsim.LinkConfig, opt AttachOptions) *relayParticipant {
	t.Helper()
	a, b, link := netsim.AsymmetricPipe(netsim.LinkConfig{}, down)
	type hs struct {
		s   *transport.Session
		err error
	}
	ch := make(chan hs, 1)
	go func() {
		s, _, err := transport.Accept(b, transport.Hello{Peer: "relay"})
		ch <- hs{s, err}
	}()
	sess, _, err := transport.Dial(a, transport.Hello{Peer: name})
	if err != nil {
		t.Fatal(err)
	}
	h := <-ch
	if h.err != nil {
		t.Fatal(h.err)
	}
	idx, err := r.AttachPeer(name, h.s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return &relayParticipant{name: name, sess: sess, link: link, idx: idx}
}

// sendData sends one semantic frame as a batch of one.
func sendData(s *transport.Session, channel, flags uint16, payload []byte) error {
	_, err := s.SendBatch([]transport.Frame{{Type: transport.TypeSemantic, Channel: channel, Flags: flags, Payload: payload}})
	return err
}

// splitParticipant decomposes a relayed channel into (participant block
// index, original channel).
func splitParticipant(channel uint16) (idx int, orig uint16) {
	return int(channel / ParticipantChannelStride), channel % ParticipantChannelStride
}

func TestRelayFansOutToAllOthers(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	alice := attachParticipant(t, r, "alice")
	bob := attachParticipant(t, r, "bob")
	carol := attachParticipant(t, r, "carol")
	defer alice.link.Close()
	defer bob.link.Close()
	defer carol.link.Close()

	if got := len(r.Peers()); got != 3 {
		t.Fatalf("%d peers", got)
	}

	// Alice streams one keypoint frame.
	enc := newKeypointEncoder()
	ef, err := enc.Encode(testSeq.FrameAt(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range ef.Channels {
		if err := sendData(alice.sess, ch.Channel, ch.Flags, ch.Payload); err != nil {
			t.Fatal(err)
		}
	}

	// Both Bob and Carol receive it in Alice's channel block; Alice
	// receives nothing back.
	for _, p := range []*relayParticipant{bob, carol} {
		f, err := p.sess.Recv()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		idx, orig := splitParticipant(f.Channel)
		if orig != ChanKeypointData {
			t.Errorf("%s got channel %d (orig %d)", p.name, f.Channel, orig)
		}
		if idx != 0 { // alice attached first
			t.Errorf("%s got block %d", p.name, idx)
		}
		// Decodes like a direct stream.
		dec := &KeypointDecoder{Model: testModel, Codec: compress.LZR()}
		clone := f.Clone()
		clone.Channel = orig
		if _, err := dec.Decode([]transport.Frame{clone}); err != nil {
			t.Errorf("%s decode: %v", p.name, err)
		}
	}
}

func TestRelayControlFramesForwarded(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	viewer := attachParticipant(t, r, "viewer")
	presenter := attachParticipant(t, r, "presenter")
	defer viewer.link.Close()
	defer presenter.link.Close()

	// The viewer reports gaze; the presenter's session must see it.
	recv := &Receiver{Session: viewer.sess}
	if err := recv.ReportGaze(geom.V3(0, 1.5, 0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan transport.Frame, 1)
	go func() {
		f, err := presenter.sess.Recv()
		if err == nil {
			done <- f.Clone()
		}
	}()
	select {
	case f := <-done:
		if f.Type != transport.TypeControl {
			t.Errorf("forwarded type %v", f.Type)
		}
		sender := &Sender{Session: presenter.sess}
		got := false
		sender.OnGaze = func(v geom.Vec3) { got = true }
		if err := sender.HandleControl(f); err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Error("gaze callback not fired")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("control frame never forwarded")
	}
}

func TestRelayDetachOnClose(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	p1 := attachParticipant(t, r, "p1")
	p2 := attachParticipant(t, r, "p2")
	defer p2.link.Close()

	p1.sess.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(r.Peers()) != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.Peers(); len(got) != 1 || got[0] != "p2" {
		t.Errorf("peers after close: %v", got)
	}
}

func TestRelayRejectsDuplicateName(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	p := attachParticipant(t, r, "dup")
	defer p.link.Close()
	a, b, link := netsim.Pipe(netsim.LinkConfig{})
	defer link.Close()
	go transport.Dial(a, transport.Hello{Peer: "dup"})
	s, _, err := transport.Accept(b, transport.Hello{Peer: "relay"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Attach("dup", s); err == nil {
		t.Error("duplicate name accepted")
	}
}

func relayGoroutineCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			t.Fatalf("goroutine leak: %d live, baseline %d (stacks above)", n, base)
		}
	}
}

// TestRelayCloseJoinsAllPumps is the leak regression for the relay:
// Close must detach every participant and join every pump goroutine
// before returning.
func TestRelayCloseJoinsAllPumps(t *testing.T) {
	leakCheck := relayGoroutineCheck(t)
	r := NewRelayOpts(t.Context(), RelayOptions{})
	var links []*netsim.Link
	for _, name := range []string{"a", "b", "c"} {
		p := attachParticipant(t, r, name)
		links = append(links, p.link)
	}
	if err := r.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if got := r.Peers(); len(got) != 0 {
		t.Errorf("peers after close: %v", got)
	}
	if _, err := r.Attach("late", nil); err == nil {
		t.Error("attach after close accepted")
	}
	for _, l := range links {
		l.Close()
	}
	leakCheck()
}

func TestRelayDetachJoinsPumpAndFreesName(t *testing.T) {
	r := NewRelayOpts(t.Context(), RelayOptions{})
	defer r.Close()
	p1 := attachParticipant(t, r, "p")
	defer p1.link.Close()
	r.Detach("p")
	if got := r.Peers(); len(got) != 0 {
		t.Errorf("peers after detach: %v", got)
	}
	// The name is free again.
	p2 := attachParticipant(t, r, "p")
	defer p2.link.Close()
	if got := r.Peers(); len(got) != 1 || got[0] != "p" {
		t.Errorf("peers after re-attach: %v", got)
	}
	r.Detach("unknown") // no-op, must not panic or block
}

func TestRelayContextCancelShutsDown(t *testing.T) {
	leakCheck := relayGoroutineCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRelayOpts(ctx, RelayOptions{})
	p1 := attachParticipant(t, r, "p1")
	p2 := attachParticipant(t, r, "p2")
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for len(r.Peers()) != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.Peers(); len(got) != 0 {
		t.Errorf("peers after context cancel: %v", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("close after cancel: %v", err)
	}
	p1.link.Close()
	p2.link.Close()
	leakCheck()
}
