package par

import (
	"context"
	"sync"
)

// Pool is a process-wide budget of worker slots shared by independent
// tenants. Kernels in this repository bound their own goroutine count by
// a Workers knob; before Pool existed every caller resolved that knob
// against GOMAXPROCS independently, so N concurrent decoders asked for
// N×GOMAXPROCS workers and oversubscribed the machine. A Pool makes the
// budget explicit: callers Reserve a slice of the capacity (blocking
// until slots free up), run their kernel with exactly that many workers,
// and Release the slice when done — the sum of outstanding grants never
// exceeds the capacity.
//
// Waiters are served strictly FIFO. A tenant that reserves once per
// frame therefore re-queues behind every other waiting tenant after each
// frame, which yields round-robin admission across tenants without any
// explicit scheduling state — the fairness property the multi-tenant
// decode service builds on.
//
// Outputs never depend on grant size: every kernel in the repository is
// worker-count invariant (see the package comment), so a tenant granted
// 2 workers under load produces bytes identical to the same tenant
// granted 8 workers on an idle pool.
type Pool struct {
	capacity int

	mu      sync.Mutex
	free    int
	waiters []*poolWaiter
}

// poolWaiter is one blocked Reserve call. The grant channel has capacity
// 1 so Release never blocks handing out slots.
type poolWaiter struct {
	want  int
	grant chan int
}

// NewPool returns a pool with the given slot capacity; capacity <= 0
// resolves to GOMAXPROCS (the whole machine).
func NewPool(capacity int) *Pool {
	capacity = Resolve(capacity)
	return &Pool{capacity: capacity, free: capacity}
}

// Capacity returns the total slot budget.
func (p *Pool) Capacity() int { return p.capacity }

// InUse returns how many slots are currently reserved.
func (p *Pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity - p.free
}

// Waiting returns how many Reserve calls are currently blocked.
func (p *Pool) Waiting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

// Reserve blocks until at least one slot is free and the caller has
// reached the head of the FIFO queue, then grants between 1 and want
// slots (want <= 0 or > capacity asks for the full capacity). The caller
// must Release exactly the returned grant when its kernel finishes. If
// ctx is canceled while waiting, Reserve returns 0 and the context's
// error, and no slots are held.
func (p *Pool) Reserve(ctx context.Context, want int) (int, error) {
	if want <= 0 || want > p.capacity {
		want = p.capacity
	}
	p.mu.Lock()
	if len(p.waiters) == 0 && p.free > 0 {
		g := min(want, p.free)
		p.free -= g
		p.mu.Unlock()
		return g, nil
	}
	w := &poolWaiter{want: want, grant: make(chan int, 1)}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	select {
	case g := <-w.grant:
		return g, nil
	case <-ctx.Done():
		p.mu.Lock()
		for i, q := range p.waiters {
			if q == w {
				p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
				p.mu.Unlock()
				return 0, ctx.Err()
			}
		}
		p.mu.Unlock()
		// Release won the race and already granted: take the slots back
		// (the grant channel is buffered, so the value is waiting).
		p.Release(<-w.grant)
		return 0, ctx.Err()
	}
}

// Release returns n slots obtained from Reserve and hands freed capacity
// to waiters in FIFO order.
func (p *Pool) Release(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	p.free += n
	if p.free > p.capacity {
		panic("par: Pool.Release returned more slots than were reserved")
	}
	for p.free > 0 && len(p.waiters) > 0 {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		g := min(w.want, p.free)
		p.free -= g
		w.grant <- g
	}
	p.mu.Unlock()
}
