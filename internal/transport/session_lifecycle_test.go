package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// handshakePair builds a connected session pair over an in-memory pipe,
// both ends bound to ctx.
func handshakePair(t *testing.T, ctx context.Context) (*Session, *Session) {
	t.Helper()
	a, b := net.Pipe()
	type hs struct {
		s   *Session
		err error
	}
	ch := make(chan hs, 1)
	go func() {
		s, _, err := AcceptContext(ctx, b, Hello{Peer: "b"})
		ch <- hs{s, err}
	}()
	sa, _, err := DialContext(ctx, a, Hello{Peer: "a"})
	if err != nil {
		t.Fatal(err)
	}
	h := <-ch
	if h.err != nil {
		t.Fatal(h.err)
	}
	return sa, h.s
}

func TestCancelUnblocksRecv(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sa, sb := handshakePair(t, ctx)
	defer sa.Close()
	defer sb.Close()

	recvErr := make(chan error, 1)
	go func() {
		_, err := sb.Recv()
		recvErr <- err
	}()
	cancel()
	select {
	case err := <-recvErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Recv after cancel: %v, want a context.Canceled chain", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never unblocked after context cancellation")
	}
	// Sends on the canceled session also surface the cause.
	if err := sa.Send(1, 0, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Errorf("Send after cancel: %v, want a context.Canceled chain", err)
	}
}

func TestCancelCauseSurfaces(t *testing.T) {
	boom := errors.New("operator pulled the plug")
	ctx, cancel := context.WithCancelCause(context.Background())
	sa, sb := handshakePair(t, ctx)
	defer sa.Close()
	defer sb.Close()

	recvErr := make(chan error, 1)
	go func() {
		_, err := sb.Recv()
		recvErr <- err
	}()
	cancel(boom)
	select {
	case err := <-recvErr:
		if !errors.Is(err, boom) {
			t.Errorf("Recv after cancel: %v, want the cancellation cause", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never unblocked")
	}
}

func TestCloseIsIdempotentAndConcurrencySafe(t *testing.T) {
	sa, sb := handshakePair(t, context.Background())
	defer sb.Close()
	first := sa.Close()
	for i := 0; i < 3; i++ {
		if err := sa.Close(); !errors.Is(err, first) && err != first {
			t.Errorf("Close #%d: %v, want the first result %v", i+2, err, first)
		}
	}
}

func TestCloseNeverBlocksOnStalledWriter(t *testing.T) {
	// No reader on the far side and a writer mid-flight: Close must still
	// return promptly (skipping the courtesy close frame).
	a, b := net.Pipe()
	defer b.Close()
	s := newSession(a)
	go func() {
		// Blocks forever: nobody reads b.
		_ = s.Send(1, 0, make([]byte, 64))
	}()
	time.Sleep(10 * time.Millisecond) // let the writer take the lock
	done := make(chan struct{})
	go func() {
		_ = s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind a stalled writer")
	}
}

// outstandingPings lists the IDs of the pings awaiting a pong.
func (s *Session) outstandingPings() []uint32 {
	s.pingMu.Lock()
	defer s.pingMu.Unlock()
	var ids []uint32
	for _, p := range s.pings {
		if p.id != 0 {
			ids = append(ids, p.id)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestPingIDsAreMonotonic is the regression for the len()-based ping ID
// scheme: once a pong pruned the in-flight set, the next ping reused a
// live ID and cross-wired RTT samples. IDs must be monotonic.
func TestPingIDsAreMonotonic(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() { _, _ = io.Copy(io.Discard, b) }() // absorb the ping frames
	s := newSession(a)
	defer s.Close()

	for i := 0; i < 3; i++ {
		if err := s.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	// The second ping is answered; 1 and 3 stay in flight. A len-based ID
	// would now collide with an outstanding ping.
	s.handlePong(Frame{Type: TypePong, Payload: []byte{0, 0, 0, 2}})
	if err := s.Ping(); err != nil {
		t.Fatal(err)
	}

	s.pingMu.Lock()
	if s.pingSeq != 4 {
		t.Errorf("pingSeq %d after four pings, want 4", s.pingSeq)
	}
	if s.lastRTT == 0 {
		t.Error("answered ping recorded no RTT")
	}
	s.pingMu.Unlock()
	if got := s.outstandingPings(); !slices.Equal(got, []uint32{1, 3, 4}) {
		t.Errorf("in-flight pings %v, want [1 3 4] — an ID was reused or lost", got)
	}
}

// TestPingOutstandingCapped: a peer that never answers must not grow the
// session. 10 000 pings into a peer that discards them leave at most
// maxOutstandingPings tracked — the newest, the oldest evicted — and a
// late pong for an evicted ping is ignored while one for a tracked ping
// still yields an RTT.
func TestPingOutstandingCapped(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() { _, _ = io.Copy(io.Discard, b) }()
	s := newSession(a)
	defer s.Close()

	const pings = 10000
	for i := 0; i < pings; i++ {
		if err := s.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	got := s.outstandingPings()
	if len(got) != maxOutstandingPings || got[0] != pings-maxOutstandingPings+1 || got[len(got)-1] != pings {
		t.Fatalf("%d pings outstanding (%v…%v), want the newest %d", len(got), got[0], got[len(got)-1], maxOutstandingPings)
	}
	pong := func(id uint32) {
		s.handlePong(Frame{Type: TypePong, Payload: binary.BigEndian.AppendUint32(nil, id)})
	}
	pong(1) // evicted long ago
	if s.RTT() != 0 || len(s.outstandingPings()) != maxOutstandingPings {
		t.Fatal("pong for an evicted ping was matched")
	}
	pong(pings)
	if s.RTT() == 0 || len(s.outstandingPings()) != maxOutstandingPings-1 {
		t.Fatal("pong for a tracked ping was not matched")
	}
}

func TestSessionCancelLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		sa, sb := handshakePair(t, ctx)
		go func() { _, _ = sb.Recv() }()
		cancel()
		sa.Close()
		sb.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		t.Fatalf("goroutine leak: %d live, baseline %d (stacks above)", n, base)
	}
}
