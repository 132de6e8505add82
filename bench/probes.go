package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/obs"
	"semholo/internal/transport"
)

// probeBudget is how long each kernel probe loops.
const probeBudget = 250 * time.Millisecond

// loopReader replays one encoded frame forever.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// timeKernel calls fn(i) on one goroutine until probeBudget is spent
// and returns the median call time in nanoseconds and the call count.
func timeKernel(fn func(i int)) (float64, int) {
	var ns []float64
	for begin, i := time.Now(), 0; time.Since(begin) < probeBudget; i++ {
		t0 := time.Now()
		fn(i)
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ns), len(ns)
}

// runKernelProbes times each layer's kernel alone, on corpus inputs and
// one goroutine — the micro-benchmarks that localise a layer regression
// without the whole path, sharing the run's seed and header.
func runKernelProbes(res *passResult, c *corpus) {
	caps := c.pubs[0]
	at := func(i int) int { return pingPong(i, len(caps)) }
	setMs := func(name string, ns float64, n int) { res.set(name, ns/1e6, n) }

	det := keypoint.NewDetector(keypoint.DefaultDetector())
	truth := make([][]geom.Vec3, len(caps))
	params := make([]*body.Params, len(caps))
	for i := range caps {
		truth[i] = c.model.Keypoints(caps[i].Truth)
		params[i] = caps[i].Truth
	}
	ns, n := timeKernel(func(i int) { det.DetectRGBD(caps[at(i)].Views, truth[at(i)]) })
	setMs("keypoint.detect_ms", ns, n)

	codec := compress.LZR()
	raw := make([][]byte, len(caps))
	for i := range raw {
		raw[i] = params[i].Marshal()
	}
	ns, n = timeKernel(func(i int) { codec.Encode(raw[at(i)]) })
	res.set("compress.lzr_mb_per_s", ratio(float64(len(raw[0])), ns)*1e3, n)

	ns, n = timeKernel(func(i int) { dracogo.EncodeMesh(caps[at(i)].Mesh, dracogo.Options{PositionBits: 14}) })
	setMs("compress.draco_encode_ms", ns, n)

	payload := codec.Encode(raw[0])
	hop := []obs.Hop{{Kind: obs.HopSender, Site: siteSender, RecvMicros: 1, SendMicros: 2}}
	frame := transport.Frame{
		Type: transport.TypeSemantic, Channel: transport.ChannelData,
		Flags:     transport.FlagKeyframe | transport.FlagEndOfFrame | transport.FlagTrace | transport.FlagHops,
		CaptureTS: 1, SendTS: 2, TraceID: 3, Hops: hop, Payload: payload,
	}
	fw := transport.NewFrameWriter(io.Discard)
	ns, n = timeKernel(func(i int) { _ = fw.WriteFrame(&frame) })
	res.set("transport.write_frame_ns", ns, n)

	if sf, err := transport.SharedFromFrame(frame); err == nil {
		egress := obs.Hop{Kind: obs.HopRelayEgress, Site: siteHome, RecvMicros: 3}
		ns, n = timeKernel(func(i int) { _ = fw.WriteSharedFrameLeg(sf, uint32(i), 4, 5, &egress, 0) })
		res.set("transport.write_shared_leg_ns", ns, n)
	}

	var wire bytes.Buffer
	if err := transport.NewFrameWriter(&wire).WriteFrame(&frame); err == nil {
		fr := transport.NewFrameReader(&loopReader{data: wire.Bytes()})
		ns, n = timeKernel(func(i int) { _, _ = fr.ReadFrame() })
		res.set("transport.read_frame_ns", ns, n)
	}

	const probeRes = 64
	var ms0, ms1 runtime.MemStats
	cold := &avatar.Reconstructor{Model: c.model, Resolution: probeRes, Workers: 1}
	runtime.ReadMemStats(&ms0)
	ns, n = timeKernel(func(i int) { cold.Reconstruct(params[at(i)]) })
	runtime.ReadMemStats(&ms1)
	setMs("avatar.reconstruct_cold_ms", ns, n)
	res.set("mesh.extract_allocs", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n)), n)

	warm := &avatar.Reconstructor{Model: c.model, Resolution: probeRes, Workers: 1, WarmStart: true}
	ns, n = timeKernel(func(i int) { warm.Reconstruct(params[at(i)]) })
	setMs("avatar.reconstruct_warm_ms", ns, n)

	cached := &avatar.Reconstructor{Model: c.model, Resolution: probeRes, Workers: 1, Cache: &avatar.MeshCache{}}
	cached.Reconstruct(params[0])
	ns, n = timeKernel(func(i int) { cached.Reconstruct(params[0]) })
	setMs("avatar.cache_hit_ms", ns, n)
}
