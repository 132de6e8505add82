package cluster

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"semholo/internal/transport"
)

func clusterGoroutineCheck(t *testing.T) func() {
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

// TestTrunkChurnAndReconnect stresses the cascade under membership
// churn: while a publisher streams through a live trunk, subscribers
// attach and detach at the leaf shard repeatedly, then the trunk itself
// is torn down and re-dialed. A subscriber that persists across all of
// it must see a contiguous per-channel sequence (the relay assigns
// sequence numbers per egress session, so shed or trunk-lost frames
// never leave gaps in what is delivered), and when everything closes,
// no goroutine may remain.
func TestTrunkChurnAndReconnect(t *testing.T) {
	leakCheck := clusterGoroutineCheck(t)

	const room = "churny"
	m, shards := chainCluster(t, 2)
	chain := activateChain(t, m, shards, room)
	home, leaf := chain[0], chain[1]

	pub := dialShard(t, home, room, "pub")
	durable := dialShard(t, leaf, room, "durable")

	// Continuous publisher: streams until told to stop. Frames may be
	// shed anywhere (queues, trunk reconnect) — that's the point.
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	var published atomic.Uint64
	go func() {
		defer close(pubDone)
		payload := make([]byte, 2048)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pub.SendBatch([]transport.Frame{{Type: transport.TypeSemantic, Channel: 5, Payload: payload}}); err != nil {
				return
			}
			published.Add(1)
			if i%8 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// The durable subscriber drains continuously, tracking sequence
	// contiguity per channel across the whole run.
	subDone := make(chan error, 1)
	var delivered atomic.Uint64
	go func() {
		lastSeq := map[uint16]uint32{}
		for {
			f, err := durable.Recv()
			if err != nil || f.Type == transport.TypeClose {
				subDone <- nil
				return
			}
			if f.Type != transport.TypeSemantic {
				continue
			}
			if last, seen := lastSeq[f.Channel]; seen && f.Seq != last+1 {
				subDone <- fmt.Errorf("channel %d sequence gap: %d then %d", f.Channel, last, f.Seq)
				return
			}
			lastSeq[f.Channel] = f.Seq
			delivered.Add(1)
		}
	}()

	waitDelivery := func(label string) {
		t.Helper()
		start := delivered.Load()
		deadline := time.Now().Add(5 * time.Second)
		for delivered.Load() < start+10 {
			select {
			case err := <-subDone:
				t.Fatalf("%s: subscriber stopped early: %v", label, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: no frames delivered through the trunk", label)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitDelivery("before churn")

	// Attach/detach churn at the leaf while the trunk forwards.
	for round := 0; round < 5; round++ {
		var churned []*transport.Session
		for i := 0; i < 4; i++ {
			churned = append(churned, dialShard(t, leaf, room, fmt.Sprintf("churn-%d-%d", round, i)))
		}
		waitDelivery(fmt.Sprintf("churn round %d", round))
		for _, sess := range churned {
			_ = sess.Close()
		}
	}

	// Trunk reconnect mid-stream: frames in flight on the old trunk are
	// lost, but the durable subscriber's egress session survives, so its
	// sequence numbering must continue without a gap.
	if err := m.ReconnectTrunk(room, leaf.ID()); err != nil {
		t.Fatalf("trunk reconnect: %v", err)
	}
	waitDelivery("after trunk reconnect")

	close(stop)
	<-pubDone
	if pubN, subN := published.Load(), delivered.Load(); subN == 0 || subN > pubN {
		t.Fatalf("delivered %d of %d published frames", subN, pubN)
	}

	// Full teardown joins every pump/egress/trunk goroutine.
	_ = pub.Close()
	if err := m.Close(); err != nil {
		t.Errorf("manager close: %v", err)
	}
	_ = durable.Close()
	if err := <-subDone; err != nil {
		t.Fatalf("sequence contiguity violated: %v", err)
	}
	leakCheck()
}
