package transport

import (
	"math"
	"sync"
	"time"
)

// BandwidthEstimator estimates delivered throughput from byte-arrival
// events using an exponentially weighted moving average over fixed
// windows — each relay egress leg's delivered-throughput signal for its
// TierSelector (§3.2 rate adaptation, applied per link).
//
// A stream that goes quiet stops calling Observe, so the estimate would
// otherwise freeze at its last value forever — a leg scored at its old
// throughput long after it stalled. After an idle gap longer than
// estimatorStaleWindows windows the estimate ages: it halves per
// further stale period, and the next Observe both commits the decay and
// reopens the measurement window at the arrival instant so the silent
// gap never dilutes the new window's rate. The zero value is ready to
// use.
type BandwidthEstimator struct {
	mu          sync.Mutex
	windowOpen  time.Time
	lastArrival time.Time
	bytes       int64
	estimate    float64 // bits per second
	hasSample   bool
}

const (
	// estimatorWindow is the measurement interval.
	estimatorWindow = 250 * time.Millisecond
	// estimatorAlpha is the EWMA weight for the newest window.
	estimatorAlpha = 0.3
	// estimatorStaleWindows is how many silent windows the estimate
	// survives unchanged before aging kicks in.
	estimatorStaleWindows = 4
)

// decayFactor is the aging multiplier for a silent gap ending at now:
// 1 inside the stale period, then halving per further period.
func (e *BandwidthEstimator) decayFactor(now time.Time) float64 {
	if !e.hasSample || e.lastArrival.IsZero() {
		return 1
	}
	const stale = estimatorStaleWindows * estimatorWindow
	gap := now.Sub(e.lastArrival)
	if gap <= stale {
		return 1
	}
	return math.Pow(0.5, float64(gap-stale)/float64(stale))
}

// Observe records n payload bytes arriving at time now.
func (e *BandwidthEstimator) Observe(now time.Time, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.windowOpen.IsZero() {
		e.windowOpen = now
	}
	if decay := e.decayFactor(now); decay < 1 {
		// Commit the idle-gap aging and reopen the window here: folding
		// the silent span into the next window's elapsed time would
		// understate its rate and double-penalize the recovering stream.
		e.estimate *= decay
		e.windowOpen = now
		e.bytes = 0
	}
	e.lastArrival = now
	e.bytes += int64(n)
	if elapsed := now.Sub(e.windowOpen); elapsed >= estimatorWindow {
		bps := float64(e.bytes*8) / elapsed.Seconds()
		if e.hasSample {
			e.estimate = estimatorAlpha*bps + (1-estimatorAlpha)*e.estimate
		} else {
			e.estimate = bps
			e.hasSample = true
		}
		e.windowOpen = now
		e.bytes = 0
	}
}

// Estimate returns the current estimate in bits per second (0 before the
// first full window), aged for any idle gap up to the present.
func (e *BandwidthEstimator) Estimate() float64 {
	return e.EstimateAt(time.Now())
}

// EstimateAt is Estimate evaluated at an explicit instant: the estimate
// decays geometrically once the stream has been silent for longer than
// estimatorStaleWindows windows. It does not mutate state (the decay is
// committed by the next Observe), so repeated calls at the same instant
// agree.
func (e *BandwidthEstimator) EstimateAt(now time.Time) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.estimate * e.decayFactor(now)
}

// RateLevel names one rung of a tier ladder, cheapest first.
type RateLevel struct {
	// Name identifies the level ("text", "keypoint", "keypoint+texture",
	// "image-w16", "traditional", …).
	Name string
}
