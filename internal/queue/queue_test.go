package queue

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueDropPolicyKeepsFreshest(t *testing.T) {
	q := NewQueue[int](1, false)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := q.Put(ctx, i); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if got := q.Dropped(); got != 2 {
		t.Errorf("dropped %d, want 2", got)
	}
	v, err := q.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("got %d, want the freshest frame 2", v)
	}
}

func TestQueueDrainsAfterClose(t *testing.T) {
	q := NewQueue[int](4, false)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := q.Put(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if err := q.Put(ctx, 99); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close: %v, want ErrClosed", err)
	}
	for i := 0; i < 3; i++ {
		v, err := q.Get(ctx)
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if v != i {
			t.Errorf("drain %d: got %d", i, v)
		}
	}
	if _, err := q.Get(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("get on drained closed queue: %v, want ErrClosed", err)
	}
}

func TestQueueLosslessBlocksUntilSpace(t *testing.T) {
	q := NewQueue[int](1, true)
	ctx := context.Background()
	if err := q.Put(ctx, 1); err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- q.Put(ctx, 2) }()
	select {
	case err := <-unblocked:
		t.Fatalf("lossless put on a full queue returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if v, err := q.Get(ctx); err != nil || v != 1 {
		t.Fatalf("get: %d, %v", v, err)
	}
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("blocked put failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put never unblocked after space freed")
	}
	if q.Dropped() != 0 {
		t.Errorf("lossless queue dropped %d frames", q.Dropped())
	}
}

func TestQueueCancellationSurfacesCause(t *testing.T) {
	boom := errors.New("stage exploded")
	ctx, cancel := context.WithCancelCause(context.Background())

	q := NewQueue[int](1, true)
	if err := q.Put(ctx, 1); err != nil {
		t.Fatal(err)
	}
	cancel(boom)
	if err := q.Put(ctx, 2); !errors.Is(err, boom) {
		t.Errorf("lossless put after cancel: %v, want the cancellation cause", err)
	}
	if v, err := q.Get(ctx); err != nil || v != 1 { // buffered item still drains (fast path)
		t.Fatalf("drain after cancel: %d, %v", v, err)
	}
	if _, err := q.Get(ctx); !errors.Is(err, boom) {
		t.Errorf("get on canceled context: %v, want the cancellation cause", err)
	}
}

func TestQueueGetUnblocksOnCancel(t *testing.T) {
	q := NewQueue[int](1, false)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := q.Get(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("get: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("get never unblocked on cancel")
	}
}

func TestQueueTryGetNeverBlocks(t *testing.T) {
	q := NewQueue[int](2, false)
	if v, ok := q.TryGet(); ok {
		t.Fatalf("TryGet on an empty queue returned %d", v)
	}
	if err := q.Put(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = %d, %v; want 7, true", v, ok)
	}
	q.Close()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on a closed, drained queue returned an item")
	}
}

// TestQueueShedAndEvictAccounting hammers both halves of
// latest-frame-wins at once — producers evicting through a full Put,
// the consumer superseding with TryGet+Shed — and checks that every
// entry put is either delivered or counted, and that OnDrop observed
// each drop exactly once. Run with -race: OnDrop fires from the
// producers (under the Put lock) and from the consumer (no lock)
// concurrently.
func TestQueueShedAndEvictAccounting(t *testing.T) {
	const producers, perProducer = 4, 5000
	const total = producers * perProducer
	q := NewQueue[int](4, false)
	// Each value is put once, so seen[v] is written by at most the one
	// goroutine that drops v; hooked counts calls across goroutines.
	seen := make([]atomic.Uint32, total)
	var hooked atomic.Uint64
	q.OnDrop = func(v int) {
		seen[v].Add(1)
		hooked.Add(1)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Put(ctx, base+i); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(p * perProducer)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()

	got := 0
	delivered := make([]bool, total)
	for {
		v, err := q.Get(ctx)
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatal(err)
			}
			break
		}
		// Newest-wins consumer: whatever is queued behind v supersedes it.
		for {
			n, ok := q.TryGet()
			if !ok {
				break
			}
			q.Shed(v)
			v = n
		}
		delivered[v] = true
		got++
	}

	dropped := q.Dropped()
	if uint64(got)+dropped != total {
		t.Errorf("put %d != got %d + dropped %d", total, got, dropped)
	}
	if hooked.Load() != dropped {
		t.Errorf("OnDrop fired %d times for %d drops", hooked.Load(), dropped)
	}
	for v := range seen {
		n := seen[v].Load()
		if n > 1 || (n == 1) == delivered[v] {
			t.Fatalf("value %d: delivered=%v, OnDrop calls=%d", v, delivered[v], n)
		}
	}
}
