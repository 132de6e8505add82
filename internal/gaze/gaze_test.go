package gaze

import (
	"math"
	"math/rand"
	"testing"

	"semholo/internal/geom"
)

func TestClassifierThresholds(t *testing.T) {
	c := DefaultClassifier()
	mk := func(speed float64) (Sample, Sample) {
		return Sample{T: 0, Pos: geom.V2(0, 0)},
			Sample{T: 0.01, Pos: geom.V2(speed*0.01, 0)}
	}
	a, b := mk(5)
	if got := c.Classify(a, b); got != Fixation {
		t.Errorf("5 deg/s = %v", got)
	}
	a, b = mk(60)
	if got := c.Classify(a, b); got != SmoothPursuit {
		t.Errorf("60 deg/s = %v", got)
	}
	a, b = mk(400)
	if got := c.Classify(a, b); got != Saccade {
		t.Errorf("400 deg/s = %v", got)
	}
}

func TestClassifierDegenerateDt(t *testing.T) {
	c := DefaultClassifier()
	s := Sample{T: 1, Pos: geom.V2(3, 3)}
	if got := c.Classify(s, s); got != Fixation {
		t.Errorf("zero-dt = %v", got)
	}
}

func TestMovementStrings(t *testing.T) {
	if Fixation.String() == Saccade.String() || Movement(99).String() != "unknown" {
		t.Error("movement strings broken")
	}
}

func TestPredictorHoldsDuringFixation(t *testing.T) {
	p := NewPredictor()
	p.Observe(Sample{T: 0, Pos: geom.V2(1, 1)}, 0.05)
	pred, mv := p.Observe(Sample{T: 0.01, Pos: geom.V2(1.001, 1)}, 0.05)
	if mv != Fixation {
		t.Fatalf("movement = %v", mv)
	}
	if pred.Dist(geom.V2(1.001, 1)) > 1e-9 {
		t.Errorf("fixation prediction drifted to %v", pred)
	}
}

func TestPredictorExtrapolatesPursuit(t *testing.T) {
	p := NewPredictor()
	p.Observe(Sample{T: 0, Pos: geom.V2(0, 0)}, 0.1)
	// 50 deg/s rightward.
	pred, mv := p.Observe(Sample{T: 0.01, Pos: geom.V2(0.5, 0)}, 0.1)
	if mv != SmoothPursuit {
		t.Fatalf("movement = %v", mv)
	}
	want := geom.V2(0.5+50*0.1, 0)
	if pred.Dist(want) > 1e-6 {
		t.Errorf("pursuit prediction %v, want %v", pred, want)
	}
}

func TestPredictorLeadsSaccade(t *testing.T) {
	p := NewPredictor()
	p.Observe(Sample{T: 0, Pos: geom.V2(0, 0)}, 0.05)
	// 300 deg/s saccade.
	cur := Sample{T: 0.01, Pos: geom.V2(3, 0)}
	pred, mv := p.Observe(cur, 0.05)
	if mv != Saccade {
		t.Fatalf("movement = %v", mv)
	}
	// Prediction must lead the current position along the motion.
	if pred.X <= cur.Pos.X {
		t.Errorf("saccade prediction %v does not lead %v", pred, cur.Pos)
	}
}

func TestScriptProducesSaccadesAndFixations(t *testing.T) {
	script := NewScript(3)
	cls := DefaultClassifier()
	counts := map[Movement]int{}
	prev := script.At(0)
	for i := 1; i < 3000; i++ {
		cur := script.At(float64(i) * 0.002) // 500 Hz
		counts[cls.Classify(prev, cur)]++
		prev = cur
	}
	if counts[Fixation] == 0 || counts[Saccade] == 0 {
		t.Errorf("gaze script lacks variety: %v", counts)
	}
	// Mostly fixation (natural viewing is ~90% fixation time).
	if counts[Fixation] < counts[Saccade] {
		t.Errorf("more saccade samples than fixation: %v", counts)
	}
}

func TestScriptMonotonicSafe(t *testing.T) {
	script := NewScript(4)
	last := script.At(0)
	for i := 1; i < 500; i++ {
		s := script.At(float64(i) * 0.01)
		if math.IsNaN(s.Pos.X) || math.IsNaN(s.Pos.Y) {
			t.Fatal("NaN gaze sample")
		}
		if s.T < last.T {
			t.Fatal("time went backwards")
		}
		last = s
	}
}

func TestPredictorReducesSaccadeError(t *testing.T) {
	// Over a scripted trace, predicting with the saccade model must
	// beat the zero-order hold (use current gaze) during saccades.
	// The script is stateful in time, so precompute the whole trace with
	// monotonic queries before evaluating predictions against it.
	script := NewScript(5)
	const horizon = 0.03
	const dt = 0.004
	const steps = 4000
	lead := int(math.Round(horizon / dt))
	trace := make([]Sample, steps+lead+1)
	for i := range trace {
		trace[i] = script.At(float64(i) * dt)
	}
	pred := NewPredictor()
	cls := DefaultClassifier()
	var errPred, errHold float64
	n := 0
	for i := 1; i < steps; i++ {
		cur := trace[i]
		future := trace[i+lead]
		p, _ := pred.Observe(cur, horizon)
		if cls.Classify(trace[i-1], cur) == Saccade {
			errPred += p.Dist(future.Pos)
			errHold += cur.Pos.Dist(future.Pos)
			n++
		}
	}
	if n == 0 {
		t.Skip("no saccade samples in trace")
	}
	if errPred >= errHold {
		t.Errorf("saccade prediction error %.2f not better than hold %.2f (n=%d)",
			errPred/float64(n), errHold/float64(n), n)
	}
}

func TestFovealSelector(t *testing.T) {
	f := FovealSelector{Radius: 5, ViewDistance: 2}
	anchor := geom.V3(0, 1, 0)
	if !f.InFovea(anchor, anchor) {
		t.Error("anchor not in fovea")
	}
	// 5° at 2 m ≈ 0.175 m.
	near := anchor.Add(geom.V3(0.1, 0, 0))
	far := anchor.Add(geom.V3(0.5, 0, 0))
	if !f.InFovea(near, anchor) {
		t.Error("near point excluded")
	}
	if f.InFovea(far, anchor) {
		t.Error("far point included")
	}
	centroids := []geom.Vec3{anchor, near, far}
	fov, per := f.SplitMesh(centroids, anchor)
	if len(fov) != 2 || len(per) != 1 {
		t.Errorf("split %d/%d", len(fov), len(per))
	}
}

func TestFovealSelectorRadiusMonotone(t *testing.T) {
	anchor := geom.V3(0, 0, 0)
	centroids := make([]geom.Vec3, 50)
	for i := range centroids {
		centroids[i] = geom.V3(float64(i)*0.02, 0, 0)
	}
	small := FovealSelector{Radius: 2, ViewDistance: 2}
	large := FovealSelector{Radius: 8, ViewDistance: 2}
	fs, _ := small.SplitMesh(centroids, anchor)
	fl, _ := large.SplitMesh(centroids, anchor)
	if len(fl) <= len(fs) {
		t.Errorf("larger radius selected fewer faces: %d vs %d", len(fl), len(fs))
	}
}

// TestFovealTestMatchesInFovea checks FovealTest.In against InFovea on
// random points and on points within ±8 ulps of the boundary radius, for
// random selectors and the degenerate ones (no view distance, no radius,
// a radius of 80° or more), and that ordinary selectors take the
// squared-distance path at all.
func TestFovealTestMatchesInFovea(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	unit := func() geom.Vec3 {
		for {
			v := geom.V3(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
			if l := v.Len(); l > 0.1 && l <= 1 {
				return v.Scale(1 / l)
			}
		}
	}
	sels := []FovealSelector{
		{Radius: 8, ViewDistance: 2}, {Radius: 2, ViewDistance: 0.5}, {Radius: 1e-3, ViewDistance: 3},
		{Radius: 79.999, ViewDistance: 1},
		{Radius: 5, ViewDistance: 0}, {Radius: 5, ViewDistance: -1},
		{Radius: 0, ViewDistance: 2}, {Radius: -3, ViewDistance: 2},
		{Radius: 80, ViewDistance: 2}, {Radius: 90, ViewDistance: 2}, {Radius: 135, ViewDistance: 2},
	}
	for i := 0; i < 40; i++ {
		sels = append(sels, FovealSelector{Radius: rng.Float64() * 80, ViewDistance: 0.05 + rng.Float64()*10})
	}
	for _, sel := range sels {
		anchor := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		test := sel.Around(anchor)
		if fast := test.in > 0; fast != (sel.ViewDistance > 0 && sel.Radius > 0 && sel.Radius < 80) {
			t.Errorf("%+v: squared-distance path enabled = %v", sel, fast)
		}
		check := func(p geom.Vec3) {
			if got, want := test.In(p), sel.InFovea(p, anchor); got != want {
				t.Fatalf("%+v anchor %v point %v: In = %v, InFovea = %v", sel, anchor, p, got, want)
			}
		}
		check(anchor)
		r := sel.ViewDistance * math.Tan(sel.Radius*math.Pi/180)
		for j := 0; j < 2000; j++ {
			check(anchor.Add(unit().Scale(rng.Float64() * 3 * math.Abs(r))))
		}
		if !(r > 0) || math.IsInf(r, 0) {
			continue
		}
		for j := 0; j < 200; j++ {
			u := unit()
			d := r
			for k := 0; k < 8; k++ {
				d = math.Nextafter(d, 0)
			}
			for k := -8; k <= 8; k++ {
				check(anchor.Add(u.Scale(d)))
				d = math.Nextafter(d, math.Inf(1))
			}
		}
	}
}
