package experiments

import (
	"fmt"
	"sync"
	"time"

	"semholo/internal/core"
	"semholo/internal/metrics"
	"semholo/internal/netsim"
	"semholo/internal/render"
	"semholo/internal/transport"
)

// QoEPoint is one pipeline's end-to-end delivery measurement over a
// constrained link: the paper's thesis — semantics preserve experience
// where bit-by-bit streaming cannot — made quantitative.
type QoEPoint struct {
	Mode string
	// Link is the emulated bandwidth in Mbps.
	LinkMbps float64
	// P95LatencyMs is the 95th-percentile capture-to-decode latency.
	P95LatencyMs float64
	// DeliveredFPS is the achieved frame rate.
	DeliveredFPS float64
	// Quality is the SSIM of the probe render vs ground truth, in [0,1].
	Quality float64
	// Score is the composite QoE (quality × latency penalty × fps
	// penalty) under the paper's interactivity targets (<100 ms, 30 FPS).
	Score float64
}

// qoeMode couples a pipeline with its name for the sweep.
type qoeMode struct {
	name string
	enc  core.Encoder
	dec  core.Decoder
}

// QoE streams `frames` frames of each pipeline over the given link at
// the target frame rate and scores the delivered experience.
func QoE(env *Env, link netsim.LinkConfig, frames int) []QoEPoint {
	if frames <= 0 {
		frames = 15
	}
	modes := []qoeMode{
		{"text", newTextEncoderFor(env), newTextDecoderFor()},
		{"keypoint", env.keypointEncoder(), newKeypointDecoderFor(env, 32)},
		{"traditional", &core.TraditionalEncoder{}, &core.TraditionalDecoder{}},
		{"traditional-raw", &core.TraditionalEncoder{Uncompressed: true}, &core.TraditionalDecoder{}},
	}
	out := make([]QoEPoint, 0, len(modes))
	for _, m := range modes {
		out = append(out, runQoE(env, link, m, frames))
	}
	return out
}

func runQoE(env *Env, link netsim.LinkConfig, m qoeMode, frames int) QoEPoint {
	// Pre-capture all frames so capture cost is excluded from pacing.
	caps := make([]captureFrame, frames)
	for i := range caps {
		c := env.Seq.FrameAt(i)
		caps[i] = captureFrame{c: c, gt: env.renderGroundTruth(c)}
	}

	a, b, l := netsim.Pipe(link)
	defer l.Close()

	type handshake struct {
		sess *transport.Session
		err  error
	}
	hch := make(chan handshake, 1)
	go func() {
		s, _, err := transport.Accept(b, transport.Hello{Peer: "recv", Mode: m.name})
		hch <- handshake{s, err}
	}()
	sessA, _, err := transport.Dial(a, transport.Hello{Peer: "send", Mode: m.name})
	if err != nil {
		panic(err)
	}
	h := <-hch
	if h.err != nil {
		panic(h.err)
	}

	// Shared clock: record each frame's send-start time.
	var mu sync.Mutex
	sendStart := make([]time.Time, frames)

	sender := &core.Sender{Session: sessA, Encoder: m.enc}
	go func() {
		ticker := time.NewTicker(time.Duration(float64(time.Second) / env.FPS))
		defer ticker.Stop()
		for i := 0; i < frames; i++ {
			mu.Lock()
			sendStart[i] = time.Now()
			mu.Unlock()
			if err := sender.SendFrame(caps[i].capture()); err != nil {
				return
			}
			<-ticker.C
		}
	}()

	receiver := &core.Receiver{Session: h.sess}
	latencies := make([]float64, 0, frames)
	var lastData core.FrameData
	recvBegin := time.Now()
	for i := 0; i < frames; i++ {
		raw, err := receiver.NextRaw()
		if err != nil {
			panic(fmt.Sprintf("qoe %s frame %d: %v", m.name, i, err))
		}
		data, err := m.dec.Decode(raw.Frames)
		if err != nil {
			panic(fmt.Sprintf("qoe %s frame %d: %v", m.name, i, err))
		}
		mu.Lock()
		start := sendStart[i]
		mu.Unlock()
		latencies = append(latencies, ms(time.Since(start)))
		lastData = data
	}
	elapsed := time.Since(recvBegin).Seconds()

	// Quality: render the final reconstruction from the probe and SSIM
	// against ground truth.
	probeView := render.NewFrame(env.Probe)
	switch {
	case lastData.Mesh != nil:
		render.RenderMesh(probeView, lastData.Mesh, render.MeshOptions{})
	case lastData.Cloud != nil:
		render.RenderCloud(probeView, lastData.Cloud, 2)
	}
	gt := caps[frames-1].gt
	quality := metrics.SSIM(probeView.Color, gt.Color, env.Probe.Intr.Width)

	p95 := percentile(latencies, 0.95)
	fps := float64(frames) / elapsed
	w := metrics.DefaultQoE()
	return QoEPoint{
		Mode:         m.name,
		LinkMbps:     link.Bandwidth / 1e6,
		P95LatencyMs: p95,
		DeliveredFPS: fps,
		Quality:      quality,
		Score:        w.Score(quality, p95/1000, fps),
	}
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func newTextEncoderFor(env *Env) *core.TextEncoder {
	return &core.TextEncoder{
		Captioner: textCaptioner(),
		Codec:     lzrCodec(),
	}
}

func newTextDecoderFor() *core.TextDecoder {
	return &core.TextDecoder{Codec: lzrCodec()}
}

func newKeypointDecoderFor(env *Env, res int) *core.KeypointDecoder {
	return &core.KeypointDecoder{
		Model: env.Model, Codec: lzrCodec(), Resolution: res,
		Cache: env.reconCache(), Counters: env.reconCounters(),
	}
}
