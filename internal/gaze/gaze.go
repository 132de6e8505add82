// Package gaze implements the eye-gaze machinery behind foveated hybrid
// streaming (§3.1): classification of gaze movements into fixation,
// smooth pursuit, and saccade by angular speed (after [52]), prediction
// of saccade landing positions so the foveal region can be prefetched
// (after [6, 7, 68], exploiting saccadic omission [24]), and a synthetic
// gaze generator for experiments.
package gaze

import (
	"math"
	"math/rand"

	"semholo/internal/geom"
)

// Sample is one gaze measurement: a direction on the display, expressed
// in degrees of visual angle, at time T (seconds).
type Sample struct {
	T   float64
	Pos geom.Vec2 // degrees
}

// Movement classifies a gaze segment.
type Movement int

// Gaze movement classes, by angular speed.
const (
	Fixation Movement = iota
	SmoothPursuit
	Saccade
)

func (m Movement) String() string {
	switch m {
	case Fixation:
		return "fixation"
	case SmoothPursuit:
		return "pursuit"
	case Saccade:
		return "saccade"
	default:
		return "unknown"
	}
}

// Classifier labels gaze samples by speed thresholds (deg/s). The
// defaults follow the eye-tracking literature: fixations below ~30 deg/s,
// saccades above ~100 deg/s, smooth pursuit between.
type Classifier struct {
	FixationMax float64 // deg/s; default 30
	SaccadeMin  float64 // deg/s; default 100
}

// DefaultClassifier returns the standard thresholds.
func DefaultClassifier() Classifier { return Classifier{FixationMax: 30, SaccadeMin: 100} }

// Classify labels the movement between two consecutive samples.
func (c Classifier) Classify(a, b Sample) Movement {
	dt := b.T - a.T
	if dt <= 0 {
		return Fixation
	}
	speed := b.Pos.Sub(a.Pos).Len() / dt
	fm := c.FixationMax
	if fm <= 0 {
		fm = 30
	}
	sm := c.SaccadeMin
	if sm <= 0 {
		sm = 100
	}
	switch {
	case speed < fm:
		return Fixation
	case speed >= sm:
		return Saccade
	default:
		return SmoothPursuit
	}
}

// Predictor estimates where the gaze will be a short horizon ahead.
// During fixations it holds position; during pursuit it extrapolates
// linearly; during saccades it predicts the landing position from the
// saccadic main sequence (amplitude is roughly proportional to peak
// velocity), which is what makes prefetching the post-saccade foveal
// region possible.
type Predictor struct {
	Classifier Classifier
	// MainSequenceSlope maps peak speed (deg/s) to remaining amplitude
	// (deg); ~0.02 s fits the human main sequence regime.
	MainSequenceSlope float64

	prev      Sample
	prevSpeed float64
	havePrev  bool
}

// NewPredictor builds a predictor with literature defaults. The slope is
// deliberately conservative: overshooting a landing point costs more
// than undershooting, because the eye stops at the target while the
// prediction keeps going.
func NewPredictor() *Predictor {
	return &Predictor{Classifier: DefaultClassifier(), MainSequenceSlope: 0.008}
}

// Observe feeds one sample and returns the predicted gaze position at
// horizon seconds after the sample, plus the classified movement.
func (p *Predictor) Observe(s Sample, horizon float64) (geom.Vec2, Movement) {
	if !p.havePrev {
		p.prev = s
		p.havePrev = true
		return s.Pos, Fixation
	}
	mv := p.Classifier.Classify(p.prev, s)
	dt := s.T - p.prev.T
	vel := s.Pos.Sub(p.prev.Pos).Scale(1 / dt)
	speed := vel.Len()
	var pred geom.Vec2
	switch mv {
	case Fixation:
		pred = s.Pos
	case SmoothPursuit:
		pred = s.Pos.Add(vel.Scale(horizon))
	case Saccade:
		dir := vel.Scale(1 / speed)
		accel := (speed - p.prevSpeed) / dt
		var amp float64
		if accel < -1 {
			// Decelerating: the ballistic stopping distance v²/(2|a|)
			// estimates the remaining amplitude to the landing point.
			amp = speed * speed / (2 * -accel)
		} else {
			// Accelerating or cruising: the landing point is at least
			// the main-sequence remaining amplitude away.
			amp = p.MainSequenceSlope * speed
		}
		// Never predict beyond what the eye can cover in the horizon.
		amp = math.Min(amp, speed*horizon)
		pred = s.Pos.Add(dir.Scale(amp))
	}
	p.prev = s
	p.prevSpeed = speed
	return pred, mv
}

// Script generates a deterministic synthetic gaze trace: fixations of
// random duration separated by ballistic saccades — the workload for the
// foveated-streaming ablation.
type Script struct {
	rng      *rand.Rand
	fix      geom.Vec2 // current fixation target
	next     geom.Vec2 // saccade target
	tSwitch  float64   // when the current fixation ends
	tLand    float64   // when the in-flight saccade lands
	inFlight bool
}

// NewScript creates a gaze script over a field of ±extent degrees.
func NewScript(seed int64) *Script {
	s := &Script{rng: rand.New(rand.NewSource(seed))}
	s.fix = geom.V2(0, 0)
	s.tSwitch = 0.4 + s.rng.Float64()
	return s
}

// At returns the gaze position at time t. Must be called with
// non-decreasing t.
func (s *Script) At(t float64) Sample {
	const extent = 15.0 // degrees
	for {
		if !s.inFlight {
			if t < s.tSwitch {
				// Fixation with micro-jitter.
				j := geom.V2(s.rng.NormFloat64()*0.05, s.rng.NormFloat64()*0.05)
				return Sample{T: t, Pos: s.fix.Add(j)}
			}
			// Launch a saccade.
			s.next = geom.V2(
				(s.rng.Float64()*2-1)*extent,
				(s.rng.Float64()*2-1)*extent,
			)
			amp := s.next.Sub(s.fix).Len()
			// Saccade duration ≈ 2.2 ms/deg + 21 ms (literature).
			s.tLand = s.tSwitch + 0.021 + 0.0022*amp
			s.inFlight = true
			continue
		}
		if t < s.tLand {
			// Ballistic flight: smooth-step profile.
			f := (t - s.tSwitch) / (s.tLand - s.tSwitch)
			f = f * f * (3 - 2*f)
			return Sample{T: t, Pos: s.fix.Lerp(s.next, f)}
		}
		// Land and fixate again.
		s.fix = s.next
		s.inFlight = false
		s.tSwitch = s.tLand + 0.3 + s.rng.Float64()*0.8
	}
}

// FovealSelector partitions content by angular distance from gaze: the
// foveal region (full quality) versus the periphery (keypoint quality),
// the split at the heart of the §3.1 hybrid scheme.
type FovealSelector struct {
	// Radius is the foveal angular radius in degrees (human fovea ≈ 2°,
	// parafovea ≈ 5°; the trade-off knob of the ablation).
	Radius float64
	// ViewDistance converts world offsets to visual angle: the assumed
	// viewer distance (meters).
	ViewDistance float64
}

// InFovea reports whether a world point is inside the foveal region for
// a viewer at the origin looking with the given gaze angles, given the
// gazed-at anchor point.
func (f FovealSelector) InFovea(p geom.Vec3, gazeAnchor geom.Vec3) bool {
	if f.ViewDistance <= 0 {
		return true
	}
	// Angular offset of p from the anchor as seen from the viewer.
	off := p.Sub(gazeAnchor).Len()
	ang := math.Atan2(off, f.ViewDistance) * 180 / math.Pi
	return ang <= f.Radius
}

// fovealGuard is the relative band around the squared boundary radius
// inside which FovealTest defers to InFovea. The two tests' rounding
// differs by a few ulps (≈1e-15); the band is six orders wider.
const fovealGuard = 1e-9

// FovealTest is InFovea for one anchor without a Sqrt and an Atan2 per
// point: a squared distance below (D·tan R)² by more than fovealGuard is
// inside, one above it by more is outside, and only points in between
// (or selectors without such a radius) take the exact test, so every
// decision is InFovea's.
type FovealTest struct {
	sel    FovealSelector
	anchor geom.Vec3
	in     float64 // squared distances below this are inside
	out    float64 // squared distances above this are outside
}

// Around returns the FovealTest of f around anchor.
func (f FovealSelector) Around(anchor geom.Vec3) FovealTest {
	t := FovealTest{sel: f, anchor: anchor, in: -1, out: math.Inf(1)}
	// Past 80° tan grows too steep for a relative band to cover the
	// angle's rounding; a tiny or huge radius may underflow or overflow.
	if f.ViewDistance > 0 && f.Radius > 0 && f.Radius < 80 {
		r := f.ViewDistance * math.Tan(f.Radius*math.Pi/180)
		if r2 := r * r; r2 > 1e-100 && r2 < 1e100 {
			t.in, t.out = r2*(1-fovealGuard), r2*(1+fovealGuard)
		}
	}
	return t
}

// In reports InFovea(p, anchor) for the selector and anchor t was built
// from.
func (t FovealTest) In(p geom.Vec3) bool {
	d2 := p.Sub(t.anchor).LenSq()
	switch {
	case d2 < t.in:
		return true
	case d2 > t.out:
		return false
	}
	return t.sel.InFovea(p, t.anchor)
}

// SplitMesh partitions face indices of a mesh into foveal and peripheral
// sets around the gazed-at anchor.
func (f FovealSelector) SplitMesh(centroids []geom.Vec3, anchor geom.Vec3) (foveal, peripheral []int) {
	for i, c := range centroids {
		if f.InFovea(c, anchor) {
			foveal = append(foveal, i)
		} else {
			peripheral = append(peripheral, i)
		}
	}
	return foveal, peripheral
}
