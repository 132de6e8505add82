package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolBudgetNeverExceeded hammers Reserve/Release from many
// goroutines and checks the sum of outstanding grants never exceeds the
// capacity.
func TestPoolBudgetNeverExceeded(t *testing.T) {
	const capacity = 4
	p := NewPool(capacity)
	var outstanding atomic.Int64
	var peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				want := 1 + (id+j)%capacity
				g, err := p.Reserve(context.Background(), want)
				if err != nil {
					t.Errorf("Reserve: %v", err)
					return
				}
				if g < 1 || g > want {
					t.Errorf("grant %d outside [1,%d]", g, want)
				}
				now := outstanding.Add(int64(g))
				for {
					old := peak.Load()
					if now <= old || peak.CompareAndSwap(old, now) {
						break
					}
				}
				outstanding.Add(-int64(g))
				p.Release(g)
			}
		}(i)
	}
	wg.Wait()
	if got := peak.Load(); got > capacity {
		t.Fatalf("outstanding grants peaked at %d, capacity %d", got, capacity)
	}
	if p.InUse() != 0 {
		t.Fatalf("pool not drained: %d in use", p.InUse())
	}
}

// TestPoolFIFOOrder checks waiters are served in arrival order: on a
// one-slot pool, queued reservations complete in the order they queued.
func TestPoolFIFOOrder(t *testing.T) {
	p := NewPool(1)
	g, err := p.Reserve(context.Background(), 1)
	if err != nil || g != 1 {
		t.Fatalf("initial Reserve = %d, %v", g, err)
	}

	const n = 8
	order := make(chan int, n)
	queued := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Serialize queue entry so arrival order is deterministic.
			<-queued
			grant, err := p.Reserve(context.Background(), 1)
			if err != nil {
				t.Errorf("Reserve: %v", err)
				return
			}
			order <- id
			p.Release(grant)
		}(i)
		// Admit goroutine i and wait until it is parked in the queue.
		queued <- struct{}{}
		waitFor(t, func() bool { return p.Waiting() == i+1 })
	}

	p.Release(g)
	wg.Wait()
	close(order)
	want := 0
	for id := range order {
		if id != want {
			t.Fatalf("waiter %d served out of order (expected %d)", id, want)
		}
		want++
	}
}

// TestPoolReserveCancel cancels a blocked Reserve and checks no slots
// leak: the pool still hands its full capacity to the next caller.
func TestPoolReserveCancel(t *testing.T) {
	p := NewPool(2)
	g, err := p.Reserve(context.Background(), 2)
	if err != nil || g != 2 {
		t.Fatalf("initial Reserve = %d, %v", g, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Reserve(ctx, 1)
		done <- err
	}()
	waitFor(t, func() bool { return p.Waiting() == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("canceled Reserve returned %v, want context.Canceled", err)
	}
	p.Release(g)
	if got := p.InUse(); got != 0 {
		t.Fatalf("slots leaked after cancel: %d in use", got)
	}
	if g, err := p.Reserve(context.Background(), 2); err != nil || g != 2 {
		t.Fatalf("post-cancel Reserve = %d, %v; want full capacity", g, err)
	}
}

// TestPoolReserveCancelRace exercises the cancel-vs-grant race: cancel
// fires while Release is handing the waiter its slots. Whatever the
// interleaving, the slot must come back.
func TestPoolReserveCancelRace(t *testing.T) {
	p := NewPool(1)
	for i := 0; i < 200; i++ {
		g, _ := p.Reserve(context.Background(), 1)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			if grant, err := p.Reserve(ctx, 1); err == nil {
				p.Release(grant)
			}
			close(done)
		}()
		waitFor(t, func() bool { return p.Waiting() == 1 })
		go cancel()
		p.Release(g)
		<-done
		cancel()
		if g, err := p.Reserve(context.Background(), 1); err != nil || g != 1 {
			t.Fatalf("iter %d: slot lost to cancel race (grant %d, %v)", i, g, err)
		}
		p.Release(1)
	}
}

// TestPoolReleaseOverflowPanics guards the misuse detector.
func TestPoolReleaseOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unreserved slots did not panic")
		}
	}()
	NewPool(2).Release(3)
}

// waitFor polls cond for up to 2 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
