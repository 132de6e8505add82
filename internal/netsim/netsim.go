// Package netsim emulates wide-area network conditions over in-memory
// connections: bandwidth (serialization pacing), propagation delay,
// jitter, and byte-level statistics. Every SemHolo experiment runs its
// wire protocol over these links, so bandwidth/latency numbers (Table 2,
// the QoE scores) come from packets actually traversing a constrained
// link rather than from arithmetic.
package netsim

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semholo/internal/obs"
)

// LinkConfig describes one direction of an emulated link.
type LinkConfig struct {
	// Bandwidth in bits per second; 0 means unlimited.
	Bandwidth float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds uniform random delay in [0, Jitter) per packet.
	Jitter time.Duration
	// MTU bounds the chunk size moved per scheduling decision (default
	// 16 KiB; smaller values model finer-grained interleaving).
	MTU int
	// Loss is the per-chunk packet loss probability in [0,1). The
	// emulated transport is reliable (a byte stream), so a lost chunk is
	// not discarded — it is delivered after an extra RetransmitDelay,
	// modeling retransmission recovery — and counted in Stats drops.
	Loss float64
	// RetransmitDelay is the extra delay a lost chunk pays (default
	// 2×Delay + 10 ms, a coarse RTO).
	RetransmitDelay time.Duration
	// Seed makes jitter and loss reproducible.
	Seed int64
}

// Stats counts traffic through one direction of a link.
type Stats struct {
	bytes        atomic.Int64
	packets      atomic.Int64
	drops        atomic.Int64
	droppedBytes atomic.Int64
}

// Bytes returns the total payload bytes delivered.
func (s *Stats) Bytes() int64 { return s.bytes.Load() }

// Packets returns the number of chunks delivered.
func (s *Stats) Packets() int64 { return s.packets.Load() }

// Drops returns the number of chunks lost on first transmission (each
// was recovered after a retransmission delay).
func (s *Stats) Drops() int64 { return s.drops.Load() }

// DroppedBytes returns the payload bytes of dropped chunks.
func (s *Stats) DroppedBytes() int64 { return s.droppedBytes.Load() }

// Stalled is a sentinel bandwidth: a direction set to Stalled delivers
// nothing (the pump parks in-flight bytes) until the bandwidth is raised
// again or the link closes. It models a completely wedged path — a
// receiver that stopped draining — rather than a merely slow one.
const Stalled float64 = -1

// Link is a bidirectional emulated link between two net.Conn endpoints.
type Link struct {
	// AtoB and BtoA expose per-direction delivery statistics.
	AtoB, BtoA *Stats

	// Dynamic bandwidth (bits/s, stored as int64): 0 = unlimited,
	// negative = stalled. The pumps re-read these on every chunk, so
	// congestion episodes can be injected mid-session.
	bwAtoB, bwBtoA atomic.Int64
	// wakeAtoB / wakeBtoA wake a pump parked on its stalled direction
	// when the bandwidth changes; one pending wake is enough, since the
	// pump re-reads the bandwidth after every wake.
	wakeAtoB, wakeBtoA chan struct{}

	// done wakes pumps parked on a stalled direction when the link closes.
	done chan struct{}

	closeOnce sync.Once
	closers   []func() error
}

// SetBandwidth changes both directions' bandwidth (bits per second; 0 =
// unlimited, Stalled = wedged) for traffic scheduled from now on.
func (l *Link) SetBandwidth(bps float64) {
	l.SetBandwidthAtoB(bps)
	l.SetBandwidthBtoA(bps)
}

// SetBandwidthAtoB changes the a→b direction only.
func (l *Link) SetBandwidthAtoB(bps float64) { setBandwidth(&l.bwAtoB, l.wakeAtoB, bps) }

// SetBandwidthBtoA changes the b→a direction only.
func (l *Link) SetBandwidthBtoA(bps float64) { setBandwidth(&l.bwBtoA, l.wakeBtoA, bps) }

// setBandwidth stores a direction's new bandwidth, then wakes its pump
// in case it is parked on a stall.
func setBandwidth(bw *atomic.Int64, wake chan struct{}, bps float64) {
	bw.Store(int64(bps))
	select {
	case wake <- struct{}{}:
	default:
	}
}

// Instrument registers both directions' delivery statistics into the
// observability registry as pull-backed counters labeled with the link
// name and direction, so link behavior (including recovered losses,
// which are otherwise silent) shows up on the same scrape as the
// pipeline it constrains.
func (l *Link) Instrument(reg *obs.Registry, name string) {
	bytes := reg.Counter("semholo_netsim_bytes_total",
		"Emulated-link payload bytes delivered.", "link", "direction")
	packets := reg.Counter("semholo_netsim_packets_total",
		"Emulated-link chunks delivered.", "link", "direction")
	drops := reg.Counter("semholo_netsim_drops_total",
		"Emulated-link chunks lost on first transmission (recovered after a retransmission delay).",
		"link", "direction")
	droppedBytes := reg.Counter("semholo_netsim_dropped_bytes_total",
		"Payload bytes of chunks lost on first transmission.", "link", "direction")
	for dir, s := range map[string]*Stats{"a_to_b": l.AtoB, "b_to_a": l.BtoA} {
		s := s
		bytes.Func(func() float64 { return float64(s.Bytes()) }, name, dir)
		packets.Func(func() float64 { return float64(s.Packets()) }, name, dir)
		drops.Func(func() float64 { return float64(s.Drops()) }, name, dir)
		droppedBytes.Func(func() float64 { return float64(s.DroppedBytes()) }, name, dir)
	}
}

// Close tears down the link and both endpoints.
func (l *Link) Close() {
	l.closeOnce.Do(func() {
		close(l.done)
		for _, c := range l.closers {
			_ = c()
		}
	})
}

// Pipe returns two endpoints connected by an emulated link with the same
// config in both directions.
func Pipe(cfg LinkConfig) (a, b net.Conn, link *Link) {
	return AsymmetricPipe(cfg, cfg)
}

// AsymmetricPipe builds a link with distinct uplink (a→b) and downlink
// (b→a) characteristics.
func AsymmetricPipe(aToB, bToA LinkConfig) (a, b net.Conn, link *Link) {
	// Application-facing pipes; the pumps shuttle bytes between them.
	appA, inA := net.Pipe()
	appB, inB := net.Pipe()
	link = &Link{
		AtoB: &Stats{}, BtoA: &Stats{},
		wakeAtoB: make(chan struct{}, 1), wakeBtoA: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	link.bwAtoB.Store(int64(aToB.Bandwidth))
	link.bwBtoA.Store(int64(bToA.Bandwidth))
	link.closers = append(link.closers, appA.Close, inA.Close, appB.Close, inB.Close)
	go pump(inA, inB, aToB, &link.bwAtoB, link.wakeAtoB, link.AtoB, link.done)
	go pump(inB, inA, bToA, &link.bwBtoA, link.wakeBtoA, link.BtoA, link.done)
	return appA, appB, link
}

// pump moves bytes src→dst applying serialization pacing, propagation
// delay, and jitter. Bandwidth is re-read from bw per chunk so it can
// change mid-session; a stalled direction blocks on wake until it does.
// It exits when either side closes.
//
// Propagation delay is pipelined, as on a real path: the writer is
// paced by serialization (bandwidth) only, while each chunk is handed
// to a FIFO delivery goroutine that holds it for Delay before writing
// it out. A high-delay link therefore still sustains its full
// bandwidth with multiple chunks in flight, instead of degrading to
// stop-and-wait throughput of MTU/(MTU/bw + Delay). The in-flight
// buffer is bounded, so a receiver that stops draining still
// backpressures the writer.
func pump(src, dst net.Conn, cfg LinkConfig, bw *atomic.Int64, wake <-chan struct{}, stats *Stats, done <-chan struct{}) {
	mtu := cfg.MTU
	if mtu <= 0 {
		mtu = 16 * 1024
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	type chunk struct {
		data []byte
		at   time.Time
	}
	inflight := make(chan chunk, 64)
	go func() {
		defer dst.Close()
		dead := false
		for c := range inflight {
			if dead {
				continue // far side gone: drain so the read loop never blocks
			}
			if d := time.Until(c.at); d > 0 {
				time.Sleep(d)
			}
			// Count before the (synchronous) pipe write so observers
			// that already received the bytes see them counted.
			stats.bytes.Add(int64(len(c.data)))
			stats.packets.Add(1)
			if _, werr := dst.Write(c.data); werr != nil {
				// The far side is gone: close our side too, so an
				// application writer blocked on this pipe unblocks with an
				// error instead of hanging forever.
				_ = src.Close()
				dead = true
			}
		}
	}()

	buf := make([]byte, mtu)
	// txFree is when the link finishes serializing the previous chunk.
	txFree := time.Now()
	for {
		n, err := src.Read(buf)
		if n > 0 {
			// A stalled direction parks the in-flight chunk until the
			// bandwidth is raised again or the link closes.
			for bw.Load() < 0 {
				select {
				case <-done:
					_ = src.Close()
					_ = dst.Close()
					close(inflight)
					return
				case <-wake:
				}
			}
			now := time.Now()
			if txFree.Before(now) {
				txFree = now
			}
			if bandwidth := float64(bw.Load()); bandwidth > 0 {
				serialization := time.Duration(float64(n*8) / bandwidth * float64(time.Second))
				txFree = txFree.Add(serialization)
			}
			deliverAt := txFree.Add(cfg.Delay)
			if cfg.Jitter > 0 {
				deliverAt = deliverAt.Add(time.Duration(rng.Int63n(int64(cfg.Jitter))))
			}
			if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
				// Lost on first transmission: the reliable stream recovers
				// it one retransmission delay later. FIFO delivery keeps
				// later chunks behind it — in-order head-of-line blocking,
				// as a reliable byte stream behaves.
				rto := cfg.RetransmitDelay
				if rto <= 0 {
					rto = 2*cfg.Delay + 10*time.Millisecond
				}
				deliverAt = deliverAt.Add(rto)
				stats.drops.Add(1)
				stats.droppedBytes.Add(int64(n))
			}
			// Pace the writer on serialization only: the next chunk is
			// read once this one has fully left the sender, not once it
			// has crossed the wire.
			if d := time.Until(txFree); d > 0 {
				time.Sleep(d)
			}
			inflight <- chunk{data: append([]byte(nil), buf[:n]...), at: deliverAt}
		}
		if err != nil {
			// Propagate EOF/close to the other side once everything
			// in flight has drained.
			close(inflight)
			return
		}
	}
}

// Profiles for common scenarios.

// BroadbandUS returns the FCC-definition US broadband link the paper
// cites as the deployment constraint (25 Mbps, §2.1 [59]), with a
// 20 ms one-way delay.
func BroadbandUS(seed int64) LinkConfig {
	return LinkConfig{Bandwidth: 25e6, Delay: 20 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: seed}
}

// FiberLAN returns an edge-server-grade link (1 Gbps, 1 ms).
func FiberLAN(seed int64) LinkConfig {
	return LinkConfig{Bandwidth: 1e9, Delay: time.Millisecond, Seed: seed}
}

// Congested returns a degraded link (5 Mbps, 60 ms, 10 ms jitter).
func Congested(seed int64) LinkConfig {
	return LinkConfig{Bandwidth: 5e6, Delay: 60 * time.Millisecond, Jitter: 10 * time.Millisecond, Seed: seed}
}
