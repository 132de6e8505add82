package queue

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"semholo/internal/obs"
)

// ErrClosed is returned by Queue.Get after the queue is closed and
// drained, and by Put on a closed queue. It is the normal end-of-stream
// signal between stages, not a failure.
var ErrClosed = errors.New("queue: closed")

// Queue is a bounded stage-connecting queue. In the default
// latest-frame-wins mode, Put never blocks: when the queue is full the
// oldest entry is evicted and counted as a drop — real-time telepresence
// prefers a fresh frame late-joining the queue over a stale frame at its
// head. Eviction only bounds memory, though: a consumer that drains
// slower than the producer fills would still be served entries a full
// queue old. Latest-frame-wins therefore has a consumer half too — a
// consumer that knows a later entry makes the one in its hand worthless
// looks ahead with TryGet and discards the stale one through Shed, which
// feeds the same drop counter and hook as eviction. In lossless mode Put
// blocks until there is room (or the context ends), preserving every
// frame for deterministic replay.
type Queue[T any] struct {
	ch       chan T
	lossless bool

	mu     sync.Mutex // serializes Put's evict-then-insert in drop mode
	closed chan struct{}
	once   sync.Once

	dropped atomic.Uint64

	// OnDrop, when set, observes each dropped entry — evicted by a
	// latest-frame-wins Put or discarded by the consumer through Shed —
	// the hook feeding queue-drop events into the flight recorder with
	// the dropped frame's identity. It runs synchronously on whichever
	// goroutine dropped the entry: under the Put lock for an eviction, on
	// the consumer's goroutine with no queue lock held for a Shed. The
	// two can run concurrently, so it must be safe for concurrent use,
	// cheap, and must not touch the queue. Set it before the queue is
	// shared between goroutines.
	OnDrop func(dropped T)
}

// NewQueue builds a queue holding up to depth items (minimum 1).
// lossless selects blocking Puts over latest-frame-wins drops.
func NewQueue[T any](depth int, lossless bool) *Queue[T] {
	if depth < 1 {
		depth = 1
	}
	return &Queue[T]{
		ch:       make(chan T, depth),
		lossless: lossless,
		closed:   make(chan struct{}),
	}
}

// Put enqueues v. In drop mode it always succeeds immediately on an
// open queue (evicting the oldest entry when full); in lossless mode it
// blocks until space, close, or context cancellation.
func (q *Queue[T]) Put(ctx context.Context, v T) error {
	if q.lossless {
		// Deterministic fail-fast: a closed queue or canceled context
		// refuses the frame even when buffer space happens to be free.
		select {
		case <-q.closed:
			return ErrClosed
		case <-ctx.Done():
			return context.Cause(ctx)
		default:
		}
		select {
		case <-q.closed:
			return ErrClosed
		case <-ctx.Done():
			return context.Cause(ctx)
		case q.ch <- v:
			return nil
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// Drop-mode Put never blocks, so this check is the only point where
	// an unpaced producer loop observes shutdown.
	select {
	case <-q.closed:
		return ErrClosed
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
	}
	for {
		select {
		case q.ch <- v:
			return nil
		default:
			// Full: evict the oldest (latest-frame-wins). The consumer may
			// race us to it, in which case the next insert attempt wins.
			select {
			case ev := <-q.ch:
				q.Shed(ev)
			default:
			}
		}
	}
}

// Get dequeues the next item. After Close, remaining items drain in
// order, then Get returns ErrClosed.
func (q *Queue[T]) Get(ctx context.Context) (T, error) {
	var zero T
	// Fast path — also guarantees drain-after-close.
	select {
	case v := <-q.ch:
		return v, nil
	default:
	}
	select {
	case v := <-q.ch:
		return v, nil
	case <-ctx.Done():
		return zero, context.Cause(ctx)
	case <-q.closed:
		// Lost a race with a concurrent Put that landed before Close.
		select {
		case v := <-q.ch:
			return v, nil
		default:
			return zero, ErrClosed
		}
	}
}

// TryGet dequeues the next item if one is already waiting and never
// blocks — the consumer's look-ahead: having taken one entry with Get,
// it asks whether a later one is queued behind it.
func (q *Queue[T]) TryGet() (T, bool) {
	select {
	case v := <-q.ch:
		return v, true
	default:
		var zero T
		return zero, false
	}
}

// Shed counts v — an entry already taken off the queue that will not be
// delivered — as a drop, exactly as a Put eviction would: it feeds
// Dropped and OnDrop, so every entry put is either delivered or
// accounted for.
func (q *Queue[T]) Shed(v T) {
	q.dropped.Add(1)
	if q.OnDrop != nil {
		q.OnDrop(v)
	}
}

// Close marks the end of the stream: pending items remain Gettable,
// further Puts fail with ErrClosed. Idempotent.
func (q *Queue[T]) Close() { q.once.Do(func() { close(q.closed) }) }

// Len reports the current queue depth.
func (q *Queue[T]) Len() int { return len(q.ch) }

// Dropped reports how many stale entries latest-frame-wins has
// discarded: Put evictions plus consumer Sheds.
func (q *Queue[T]) Dropped() uint64 { return q.dropped.Load() }

// Instrument registers the queue's live depth and drop count into reg,
// labeled by site ("sender"/"receiver") and queue name (the stage the
// queue feeds), so a /metrics scrape shows where backpressure lands.
func (q *Queue[T]) Instrument(reg *obs.Registry, site, name string) {
	if reg == nil {
		return
	}
	reg.Gauge("semholo_pipeline_queue_depth",
		"Live depth of a stage-connecting pipeline queue.", "site", "queue").
		Func(func() float64 { return float64(q.Len()) }, site, name)
	reg.Counter("semholo_pipeline_dropped_frames_total",
		"Stale frames dropped by the latest-frame-wins queue policy (evicted by a full Put or shed by the consumer).", "site", "queue").
		Func(func() float64 { return float64(q.Dropped()) }, site, name)
}
