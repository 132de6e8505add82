package pipeline

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"semholo/internal/capture"
	"semholo/internal/core"
	"semholo/internal/netsim"
	"semholo/internal/service"
	"semholo/internal/transport"
)

// checkGoroutines snapshots the goroutine count and returns a verifier
// that fails the test (with a full stack dump) if the count has not
// returned to the baseline — the leak regression the staged runtime's
// lifecycle guarantees rule out.
func checkGoroutines(t *testing.T) func() {
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

// countingCodec is a minimal deterministic Encoder/Decoder pair: the
// payload is the media frame's sequence number, optionally decoded with
// an artificial stage cost to provoke overload.
type countingCodec struct {
	seq         uint64
	decodeDelay time.Duration
	decoded     []uint64
}

func (c *countingCodec) Mode() core.Mode { return core.ModeKeypoint }

func (c *countingCodec) Encode(capture.Capture) (core.EncodedFrame, error) {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], c.seq)
	c.seq++
	return core.EncodedFrame{Channels: []core.ChannelPayload{{
		Channel: core.ChanKeypointData,
		Flags:   transport.FlagEndOfFrame,
		Payload: p[:],
	}}}, nil
}

func (c *countingCodec) Decode(frames []transport.Frame) (core.FrameData, error) {
	if c.decodeDelay > 0 {
		time.Sleep(c.decodeDelay)
	}
	if len(frames) != 1 || len(frames[0].Payload) != 8 {
		return core.FrameData{}, fmt.Errorf("bad fake frame: %d channels", len(frames))
	}
	c.decoded = append(c.decoded, binary.BigEndian.Uint64(frames[0].Payload))
	return core.FrameData{}, nil
}

// tenantFor admits the one tenant of a fresh decode service whose
// decoder is dec.
func tenantFor(t *testing.T, dec core.Decoder) *service.StreamCtx {
	t.Helper()
	svc := service.New(service.Options{NewDecoder: func(service.Options) core.Decoder { return dec }})
	t.Cleanup(svc.Close)
	st, err := svc.Admit("receiver")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sessionPair dials both ends of an emulated link under ctx.
func sessionPair(t *testing.T, ctx context.Context, cfg netsim.LinkConfig) (send, recv *transport.Session, link *netsim.Link) {
	t.Helper()
	a, b, link := netsim.Pipe(cfg)
	type hs struct {
		s   *transport.Session
		err error
	}
	ch := make(chan hs, 1)
	go func() {
		s, _, err := transport.AcceptContext(ctx, b, transport.Hello{Peer: "recv"})
		ch <- hs{s, err}
	}()
	send, _, err := transport.DialContext(ctx, a, transport.Hello{Peer: "send"})
	if err != nil {
		t.Fatal(err)
	}
	h := <-ch
	if h.err != nil {
		t.Fatal(h.err)
	}
	return send, h.s, link
}

func TestStagedLosslessDeliversEveryFrameInOrder(t *testing.T) {
	leakCheck := checkGoroutines(t)
	ctx := context.Background()
	sendSess, recvSess, link := sessionPair(t, ctx, netsim.LinkConfig{})
	defer link.Close()

	const frames = 25
	codec := &countingCodec{}
	sender := &core.Sender{Session: sendSess, Encoder: codec}
	receiver := &core.Receiver{Session: recvSess}
	tenant := tenantFor(t, codec)

	done := make(chan error, 1)
	var rstats ReceiverStats
	go func() {
		var err error
		rstats, err = RunReceiver(ctx, receiver, tenant, nil, ReceiverOptions{Frames: frames, Lossless: true})
		done <- err
	}()
	sstats, err := RunSender(ctx, sender, func(i int) (capture.Capture, bool) {
		return capture.Capture{}, true
	}, SenderOptions{Frames: frames, Lossless: true})
	if err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if sstats.Captured != frames || sstats.Encoded != frames || sstats.Sent != frames {
		t.Errorf("sender stats %+v, want %d at every stage", sstats, frames)
	}
	if rstats.Received != frames || rstats.Decoded != frames || rstats.Rendered != frames {
		t.Errorf("receiver stats %+v, want %d at every stage", rstats, frames)
	}
	if sstats.Dropped != 0 || rstats.Dropped != 0 {
		t.Errorf("lossless run dropped frames: sender %d, receiver %d", sstats.Dropped, rstats.Dropped)
	}
	for i, seq := range codec.decoded {
		if seq != uint64(i) {
			t.Fatalf("frame %d decoded out of order: seq %d", i, seq)
		}
	}
	sendSess.Close()
	recvSess.Close()
	link.Close() // pumps must be down before the leak check
	leakCheck()
}

func TestStagedDropModeShedsBacklog(t *testing.T) {
	leakCheck := checkGoroutines(t)
	ctx := context.Background()
	sendSess, recvSess, link := sessionPair(t, ctx, netsim.LinkConfig{})
	defer link.Close()

	const frames = 30
	enc := &countingCodec{}
	// Decode costs 4× the capture interval: a sequential loop would build
	// a 3-frames-per-frame backlog; the staged runtime must shed it.
	dec := &countingCodec{decodeDelay: 4 * time.Millisecond}
	sender := &core.Sender{Session: sendSess, Encoder: enc}
	receiver := &core.Receiver{Session: recvSess}
	tenant := tenantFor(t, dec)

	done := make(chan error, 1)
	var rstats ReceiverStats
	go func() {
		var err error
		rstats, err = RunReceiver(ctx, receiver, tenant, nil, ReceiverOptions{QueueDepth: 1})
		done <- err
	}()
	if _, err := RunSender(ctx, sender, func(i int) (capture.Capture, bool) {
		return capture.Capture{}, true
	}, SenderOptions{Frames: frames, Interval: time.Millisecond, Lossless: true}); err != nil {
		t.Fatalf("sender: %v", err)
	}
	sendSess.Close() // ends the receiver's recv stage
	if err := <-done; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if rstats.Dropped == 0 {
		t.Errorf("overloaded drop-mode receiver dropped nothing: %+v", rstats)
	}
	if rstats.Rendered == 0 {
		t.Error("receiver rendered nothing")
	}
	if rstats.Rendered+int(rstats.Dropped) != rstats.Received {
		t.Errorf("frame accounting: received %d != rendered %d + dropped %d",
			rstats.Received, rstats.Rendered, rstats.Dropped)
	}
	recvSess.Close()
	link.Close()
	leakCheck()
}

func TestStagedCancelShutsDownCleanly(t *testing.T) {
	leakCheck := checkGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sendSess, recvSess, link := sessionPair(t, ctx, netsim.LinkConfig{})
	defer link.Close()

	codec := &countingCodec{}
	sender := &core.Sender{Session: sendSess, Encoder: codec}
	receiver := &core.Receiver{Session: recvSess}
	tenant := tenantFor(t, &countingCodec{})

	sdone := make(chan error, 1)
	rdone := make(chan error, 1)
	go func() {
		// Unbounded stream: only cancellation ends it.
		_, err := RunSender(ctx, sender, func(i int) (capture.Capture, bool) {
			return capture.Capture{}, true
		}, SenderOptions{Interval: time.Millisecond})
		sdone <- err
	}()
	go func() {
		_, err := RunReceiver(ctx, receiver, tenant, nil, ReceiverOptions{})
		rdone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let frames flow
	cancel()
	for name, ch := range map[string]chan error{"sender": sdone, "receiver": rdone} {
		select {
		case err := <-ch:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("%s exited with %v, want nil or context.Canceled", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never exited after cancel", name)
		}
	}
	sendSess.Close()
	recvSess.Close()
	link.Close()
	leakCheck()
}

func TestGroupPropagatesFirstError(t *testing.T) {
	boom := errors.New("stage failed")
	g, _ := NewGroup(context.Background())
	g.Go(func(ctx context.Context) error { return boom })
	g.Go(func(ctx context.Context) error {
		select {
		case <-ctx.Done():
			return nil // sibling failure canceled us — clean exit
		case <-time.After(5 * time.Second):
			return errors.New("sibling error never canceled the group")
		}
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait: %v, want the first stage error", err)
	}
}

// failingEncoder errors after n successful frames — a mid-stream encode
// stage failure.
type failingEncoder struct {
	countingCodec
	n   int
	err error
}

func (f *failingEncoder) Encode(c capture.Capture) (core.EncodedFrame, error) {
	if f.n == 0 {
		return core.EncodedFrame{}, f.err
	}
	f.n--
	return f.countingCodec.Encode(c)
}

func TestStageErrorSurfacesThroughRunSender(t *testing.T) {
	leakCheck := checkGoroutines(t)
	ctx := context.Background()
	sendSess, recvSess, link := sessionPair(t, ctx, netsim.LinkConfig{})
	defer link.Close()
	defer recvSess.Close()

	boom := errors.New("capture rig unplugged")
	sender := &core.Sender{Session: sendSess, Encoder: &failingEncoder{n: 3, err: boom}}
	_, err := RunSender(ctx, sender, func(i int) (capture.Capture, bool) {
		return capture.Capture{}, true
	}, SenderOptions{Lossless: true})
	if !errors.Is(err, boom) {
		t.Errorf("RunSender: %v, want the encode stage error", err)
	}
	sendSess.Close()
	recvSess.Close()
	link.Close()
	leakCheck()
}

// benignShutdown accepts the error shapes a deliberately torn-down
// pipeline may surface: nothing, cancellation, or the session going
// away under a mid-flight wire op.
func benignShutdown(err error) bool {
	return err == nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, core.ErrSessionClosed)
}

// TestConcurrentShutdownHammer races pipeline startup against
// cancellation, peer close, and session close from another goroutine —
// run under -race this exercises every shutdown ordering.
func TestConcurrentShutdownHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	leakCheck := checkGoroutines(t)
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		sendSess, recvSess, link := sessionPair(t, ctx, netsim.LinkConfig{})

		sender := &core.Sender{Session: sendSess, Encoder: &countingCodec{}}
		receiver := &core.Receiver{Session: recvSess}
		tenant := tenantFor(t, &countingCodec{})
		sdone := make(chan error, 1)
		rdone := make(chan error, 1)
		go func() {
			_, err := RunSender(ctx, sender, func(int) (capture.Capture, bool) {
				return capture.Capture{}, true
			}, SenderOptions{})
			sdone <- err
		}()
		go func() {
			_, err := RunReceiver(ctx, receiver, tenant, nil, ReceiverOptions{})
			rdone <- err
		}()

		// Vary the shutdown vector and its timing with the iteration.
		time.Sleep(time.Duration(i%7) * time.Millisecond)
		switch i % 3 {
		case 0:
			cancel()
		case 1:
			sendSess.Close()
		case 2:
			recvSess.Close()
		}
		for _, ch := range []chan error{sdone, rdone} {
			select {
			case err := <-ch:
				if !benignShutdown(err) {
					t.Fatalf("iter %d: pipeline error %v", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("iter %d: pipeline never exited", i)
			}
		}
		cancel()
		sendSess.Close()
		recvSess.Close()
		link.Close()
	}
	leakCheck()
}
