// Per-egress semantic tiering (§3.2 applied per link). A sender encodes
// each media frame at every rung of a tier ladder and ships all rungs,
// tier-stamped, to the relay. The relay assembles them into one
// SharedFrameSet — serialize-once per tier, exactly the SharedFrame
// economics of the single-encoding path — and each subscriber's egress
// leg consults its own TierSelector at dequeue time to pick which rung
// that leg gets. One 200 kbps viewer drops itself to keypoints-only;
// the 25 Mbps viewers keep the full hybrid mesh.
package transport

import (
	"fmt"
	"sync"
	"time"
)

// SharedFrameSet is one media frame serialized at every tier: a
// tier-indexed collection of SharedFrames (each tier may span several
// wire frames — texture + pose, say). All the per-tier payload copies
// and CRC passes happen at ingress, once, regardless of subscriber
// count; egress legs pick a tier and pay only per-header work.
// Construction is single-goroutine (the relay's ingress pump); once
// handed to egress queues the set is immutable.
type SharedFrameSet struct {
	tierCount int
	frames    [MaxTiers][]*SharedFrame
	complete  uint16 // bitmask: tier i's closing (EndOfFrame) frame seen
}

// NewSharedFrameSet sizes a set for a ladder of tierCount rungs.
func NewSharedFrameSet(tierCount int) (*SharedFrameSet, error) {
	if tierCount < 1 || tierCount > MaxTiers {
		return nil, fmt.Errorf("%w: tier count %d outside 1..%d", ErrBadHeader, tierCount, MaxTiers)
	}
	return &SharedFrameSet{tierCount: tierCount}, nil
}

// Add appends one wire frame to its tier, tracking per-tier completion
// via the frame's EndOfFrame flag.
func (s *SharedFrameSet) Add(sf *SharedFrame) error {
	if sf.Flags&FlagTier == 0 {
		return fmt.Errorf("%w: untiered frame in SharedFrameSet", ErrBadHeader)
	}
	if int(sf.TierCount) != s.tierCount || int(sf.Tier) >= s.tierCount {
		return fmt.Errorf("%w: tier %d/%d in set of %d", ErrBadHeader, sf.Tier, sf.TierCount, s.tierCount)
	}
	s.frames[sf.Tier] = append(s.frames[sf.Tier], sf)
	if sf.Flags&FlagEndOfFrame != 0 {
		s.complete |= 1 << sf.Tier
	}
	return nil
}

// TierCount returns the ladder size the set was built for.
func (s *SharedFrameSet) TierCount() int { return s.tierCount }

// Complete reports whether every tier's closing frame has arrived.
func (s *SharedFrameSet) Complete() bool {
	return s.complete == uint16(1)<<s.tierCount-1
}

// Tier returns tier i's wire frames in arrival order (nil if absent).
func (s *SharedFrameSet) Tier(i int) []*SharedFrame {
	if i < 0 || i >= s.tierCount {
		return nil
	}
	return s.frames[i]
}

// Nearest resolves a requested tier against what actually arrived: the
// highest complete tier not above want, else the lowest complete tier —
// a leg asked for more than this media frame carries degrades rather
// than stalls. Returns nil frames when no tier is complete.
func (s *SharedFrameSet) Nearest(want int) ([]*SharedFrame, int) {
	if want >= s.tierCount {
		want = s.tierCount - 1
	}
	for t := want; t >= 0; t-- {
		if s.complete&(1<<t) != 0 {
			return s.frames[t], t
		}
	}
	for t := want + 1; t < s.tierCount; t++ {
		if s.complete&(1<<t) != 0 {
			return s.frames[t], t
		}
	}
	return nil, 0
}

// TraceID returns the media frame's trace ID (from any frame carrying
// one; zero if untraced).
func (s *SharedFrameSet) TraceID() uint64 {
	for t := 0; t < s.tierCount; t++ {
		for _, sf := range s.frames[t] {
			if sf.Flags&FlagTrace != 0 {
				return sf.TraceID
			}
		}
	}
	return 0
}

// TierSignals is one egress leg's measured congestion evidence, sampled
// at dequeue time.
type TierSignals struct {
	// QueueDepth and QueueCap describe the leg's bounded egress queue
	// (latest-frame-wins). Self-contained media frames are superseded at
	// dequeue and never stand in the queue, so a backlog here is what
	// cannot be superseded — a delta-coded stream, control frames — and
	// a standing one still marks congestion.
	QueueDepth int
	QueueCap   int
	// DropRate is the fraction of frames the leg's queue shed over the
	// recent window — the hard evidence that the leg cannot keep up, and
	// on a self-contained media stream the only local one: the relay
	// refreshes the window on every dequeue that superseded a frame, so
	// the shedding is visible to the very decision it coincides with.
	DropRate float64
	// RTT is the leg's most recent ping round-trip (0 = unknown).
	RTT time.Duration
	// EstimateBps is the leg's measured delivered throughput in bits/s
	// (0 = unknown). Note that on an unsaturated link this reflects
	// offered load, not capacity — it gates nothing on its own and only
	// corroborates the backpressure signals.
	EstimateBps float64
}

// TierSelector picks a tier per egress leg from that leg's measured
// signals — the one rate-adaptation policy (§3.2 applied per link). The
// honest signals at a relay are local backpressure: queue depth, shed
// frames, and RTT inflation mark congestion and force a one-rung
// downgrade; upgrades are probes — after UpDwell of calm the selector
// steps up one rung, unless that rung recently failed, in which case it
// is barred for an exponentially growing backoff. A delivered-throughput
// estimate comfortably above the next rung's demand overrides the bar
// (strong evidence beats suspicion), via walkLadder's headroom rule.
//
// Not safe for concurrent use beyond its own locking: one selector per
// egress goroutine is the intended shape.
type TierSelector struct {
	// Levels must be ordered by ascending bitrate (one per tier).
	Levels []RateLevel
	// UpDwell is how long a leg must stay congestion-free before probing
	// one rung up (default 400 ms).
	UpDwell time.Duration
	// Backoff is the initial re-probe bar after a rung fails (default
	// 1 s), doubling per repeated failure up to BackoffMax (default 8 s).
	Backoff    time.Duration
	BackoffMax time.Duration

	mu        sync.Mutex
	current   int
	switches  int64
	calmSince time.Time
	barUntil  []time.Time
	barWidth  []time.Duration
}

// The selector's fixed thresholds.
const (
	// tierHeadroom is the up-switch safety factor on estimate evidence.
	tierHeadroom = 1.25
	// tierDropTolerance is the shed-frame fraction treated as congestion.
	tierDropTolerance = 0.03
	// tierRTTCeiling marks RTT inflation as congestion.
	tierRTTCeiling = 250 * time.Millisecond
	// tierHoldReset is how long a rung must run calm before its failure
	// backoff is forgotten.
	tierHoldReset = 5 * time.Second
)

// NewTierSelector builds a selector starting at the cheapest tier.
func NewTierSelector(levels []RateLevel) *TierSelector {
	return &TierSelector{
		Levels:   levels,
		barUntil: make([]time.Time, len(levels)),
		barWidth: make([]time.Duration, len(levels)),
	}
}

func (t *TierSelector) upDwell() time.Duration {
	if t.UpDwell > 0 {
		return t.UpDwell
	}
	return 400 * time.Millisecond
}

func (t *TierSelector) backoff() time.Duration {
	if t.Backoff > 0 {
		return t.Backoff
	}
	return time.Second
}

func (t *TierSelector) backoffMax() time.Duration {
	if t.BackoffMax > 0 {
		return t.BackoffMax
	}
	return 8 * time.Second
}

// congested folds the leg's signals into a single verdict.
func (t *TierSelector) congested(sig TierSignals) bool {
	if sig.QueueCap > 0 && sig.QueueDepth >= (sig.QueueCap+1)/2 {
		return true
	}
	if sig.DropRate > tierDropTolerance {
		return true
	}
	if sig.RTT > tierRTTCeiling {
		return true
	}
	// The estimate alone proves nothing (offered load ≠ capacity), but a
	// leg that is both shedding frames and measurably delivering less
	// than the active tier demands is congested even if its queue
	// momentarily drained.
	if sig.EstimateBps > 0 && sig.DropRate > 0 &&
		t.Levels[t.current].Bitrate > sig.EstimateBps*tierHeadroom {
		return true
	}
	return false
}

// Decide feeds one dequeue-time signal sample and returns the tier this
// leg should serve, plus whether that is a change from the previous
// decision.
func (t *TierSelector) Decide(now time.Time, sig TierSignals) (tier int, switched bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.Levels) == 0 {
		return 0, false
	}
	prev := t.current
	if t.congested(sig) {
		t.calmSince = time.Time{}
		if t.current > 0 {
			// Bar the failing rung for a doubling backoff before the next
			// probe into it.
			w := t.barWidth[t.current] * 2
			if w < t.backoff() {
				w = t.backoff()
			}
			if w > t.backoffMax() {
				w = t.backoffMax()
			}
			t.barWidth[t.current] = w
			t.barUntil[t.current] = now.Add(w)
			t.current--
		}
	} else {
		if t.calmSince.IsZero() {
			t.calmSince = now
		}
		calm := now.Sub(t.calmSince)
		if calm >= tierHoldReset {
			// The active rung has proven itself; forget its failure history.
			t.barWidth[t.current] = 0
		}
		if next := t.current + 1; next < len(t.Levels) && calm >= t.upDwell() {
			strong := sig.EstimateBps > 0 &&
				walkLadder(t.Levels, t.current, sig.EstimateBps, tierHeadroom) > t.current
			if strong || !now.Before(t.barUntil[next]) {
				t.current = next
				// Restart the dwell clock: the new rung must prove itself
				// before the next step up.
				t.calmSince = now
			}
		}
	}
	if t.current != prev {
		t.switches++
	}
	return t.current, t.current != prev
}

// Current returns the active tier without deciding.
func (t *TierSelector) Current() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// Switches returns how many times Decide changed the active tier.
func (t *TierSelector) Switches() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.switches
}
