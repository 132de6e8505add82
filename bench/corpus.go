package main

import (
	"math"
	"math/rand"
	"runtime"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/geom"
)

// captureRes is the RGB-D sensor resolution of the simulated rig and of
// the probe camera every subscriber rasterises to.
const captureRes = 64

// corpus is everything the program is fed: the session participant's
// body model, the probe camera, and one pre-generated capture sequence
// per publisher. It is built once in set-up from the seed; the run
// loop only indexes it.
type corpus struct {
	model *body.Model
	probe geom.Camera
	fps   float64
	// pubs[p] is publisher p's capture sequence in capture order.
	pubs [][]capture.Capture
}

// buildCorpus generates frames captures of body.Talking per publisher.
// The seed fixes each publisher's motion phase and sensor noise, so two
// publishers never share a pose stream and two runs with one seed share
// everything.
func buildCorpus(seed int64, frames, publishers int, fps float64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	model := body.NewModel(nil, body.ModelOptions{Detail: 1})
	c := &corpus{model: model, fps: fps, pubs: make([][]capture.Capture, publishers)}
	for p := range c.pubs {
		phase := rng.Float64() * 60
		rig := capture.NewRing(4, 2.5, 1.0, geom.V3(0, 1.0, 0), captureRes, math.Pi/3, rng.Int63())
		rig.Noise = capture.KinectLike()
		rig.Workers = runtime.GOMAXPROCS(0)
		talk := body.Talking(nil)
		seq := &capture.Sequence{
			Model:  model,
			Motion: body.MotionFunc(func(t float64) *body.Params { return talk.At(phase + t) }),
			Rig:    rig,
			FPS:    fps,
			Render: capture.SkinShader(),
		}
		if p == 0 {
			c.probe = rig.Cameras[0]
		}
		c.pubs[p] = make([]capture.Capture, frames)
		for i := range c.pubs[p] {
			c.pubs[p][i] = seq.FrameAt(i)
		}
	}
	return c
}

// pingPong maps play-out index i onto a sequence of n frames played
// forwards then backwards without repeating the end frames, so
// consecutive play-out frames are always neighbours in the sequence
// and delta or warm-start state never sees a jump.
func pingPong(i, n int) int {
	if n < 2 {
		return 0
	}
	k := i % (2*n - 2)
	if k < n {
		return k
	}
	return 2*n - 2 - k
}

// at returns publisher p's capture for play-out frame i. The capture
// time follows the play-out clock (it feeds the encoder's temporal
// filter, which must never see time run backwards); pose, ground-truth
// mesh and views come from the ping-pong position.
func (c *corpus) at(p, i int) capture.Capture {
	out := c.pubs[p][pingPong(i, len(c.pubs[p]))]
	out.Time = float64(i) / c.fps
	return out
}

// truth returns the ground-truth capture behind play-out frame i.
func (c *corpus) truth(p, i int) capture.Capture {
	return c.pubs[p][pingPong(i, len(c.pubs[p]))]
}

// dueMicros is the open-loop schedule: play-out frame i is due i/fps
// after t0, in unix microseconds (the unit of the wire capture stamp,
// so a due time survives the trip to the subscriber exactly).
func dueMicros(t0 int64, i int, fps float64) int64 {
	return t0 + int64(math.Round(float64(i)*1e6/fps))
}

// frameAtMicros inverts dueMicros.
func frameAtMicros(t0, stamp int64, fps float64) int {
	return int(math.Round(float64(stamp-t0) * fps / 1e6))
}
