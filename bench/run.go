package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"semholo/internal/capture"
	"semholo/internal/core"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
	"semholo/internal/obs"
	"semholo/internal/pipeline"
	"semholo/internal/render"
	"semholo/internal/transport"
)

const (
	// budgetMs is the paper's motion-to-photon budget (§1).
	budgetMs = 100.0
	// chamferEvery samples every n-th displayed mesh of a measured leg
	// for the quality check; chamferPoints is the sample size per mesh.
	chamferEvery  = 10
	chamferPoints = 2000
	// chamferLimitMm fails the run: a reconstruction this far from its
	// capture is a wrong output, not a quality level.
	chamferLimitMm = 40.0
	// soloFrames is how many leading frames per publisher are re-decoded
	// after the run by a solo cold decoder and compared mesh-for-mesh.
	soloFrames = 30
	// Validity guards: a number from an oversubscribed box is not a
	// measurement. The generator may start a frame at most this share of
	// the frame interval late (p95), and the process may keep at most
	// this share of the machine busy.
	maxGenLateShare   = 0.25
	maxCPUShareOfProc = 0.8
)

// runConfig is one pass over one workload.
type runConfig struct {
	seed int64
	// window is the measured time; warmup precedes it and is discarded;
	// drain follows it so frames due inside the window can still land.
	window, warmup, drain time.Duration
	// trace turns the harness's own spans on for three slots in four of
	// the window; the fourth runs the same load with them off and is the
	// CPU reference for obs.trace_overhead_frac.
	trace        bool
	corpusFrames int
	// setups is how many times set-up runs (the median is reported; all
	// but the last topology are torn down again).
	setups int
}

// pubRec is what the generator keeps per play-out frame.
type pubRec struct {
	due  int64 // unix µs: the frame's due time, and its wire capture stamp
	late int64 // ns the generator started behind due
	// Harness call boundaries (unix ns), kept on traced frames.
	encStart, encEnd, txEnd int64
	rung                    [3]int32 // payload bytes per ladder rung
	traced                  bool
}

// tracedRec is the extra a subscriber keeps per frame while tracing.
type tracedRec struct {
	trace                               obs.FrameTrace
	arrived, decStart, decEnd, renStart int64 // unix ns
}

// legRec is what a subscriber keeps per frame it displayed (decode
// legs) or received (sink legs).
type legRec struct {
	id     uint64 // trace ID
	due    int64  // wire capture stamp, unix µs
	photon int64  // unix ns: rasteriser returned (sink: last wire frame read)
	tier   int8
	hops   int8
	decNs  int64  // StreamCtx.Decode duration
	hash   uint64 // mesh fingerprint
	// sample holds points on the displayed mesh when this frame was
	// picked for the chamfer check.
	sample []geom.Vec3
	t      *tracedRec
}

type pubRun struct {
	*publisher
	recs []pubRec
	// t0 is the first capture instant of a staged publisher (unix ns).
	t0 int64
}

type legRun struct {
	*leg
	recs     []legRec
	failures []string
	lastID   uint64
	shown    int // frames displayed whose due time is inside the window
	// raws are the first soloFrames media frames, kept for the solo
	// cold re-decode.
	raws []core.RawFrame
}

// cpuSlot is the process CPU spent in one piece of the window, and
// whether the harness's spans were on in it.
type cpuSlot struct {
	cpuS, wallS float64
	traced      bool
}

// snapshot is the process and topology state at a window boundary.
type snapshot struct {
	at         time.Time
	mallocs    uint64
	allocBytes uint64
	linkBytes  []int64 // per leg, relay→subscriber
	own, trunk []core.RelayPeerStats
	recon      metrics.ReconStats
	field      metrics.FieldStats
	kfRequests int64
}

// run is one pass in flight.
type run struct {
	spec *workloadSpec
	cfg  runConfig
	topo *topology
	pubs []*pubRun
	legs []*legRun

	t0        int64 // unix µs: play-out frame 0 is due
	measureUs int64 // start of the measured window
	endUs     int64 // end of the measured window
	// slots are the measured window cut into pieces of at most a second.
	slots   []cpuSlot
	tracing atomic.Bool
	stop    atomic.Bool

	failMu   sync.Mutex
	failures []string

	poolWaits poolWaitLog
}

// shedOn is how many frames the relay path to leg li shed between two
// snapshots: on the leg's own egress queue and on the trunk leg feeding
// its shard.
func shedOn(begin, end snapshot, li int) int {
	return int(end.own[li].Dropped - begin.own[li].Dropped + end.trunk[li].Dropped - begin.trunk[li].Dropped)
}

func nowNs() int64 { return time.Now().UnixNano() }

func (r *run) fail(format string, args ...any) {
	r.failMu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.failMu.Unlock()
}

// sessionEnded reports the errors that mean a session was closed on
// purpose — the way every loop ends at teardown.
func sessionEnded(err error) bool {
	return errors.Is(err, core.ErrSessionClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.Canceled)
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (r *run) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		at:      time.Now(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		recon: r.topo.svc.Counters().Snapshot(),
		field: r.topo.svc.FieldStats().Snapshot(),
	}
	for _, l := range r.legs {
		own, trunk := r.topo.peerStats(l.leg)
		s.linkBytes = append(s.linkBytes, l.link.BtoA.Bytes())
		s.own = append(s.own, own)
		s.trunk = append(s.trunk, trunk)
	}
	for _, p := range r.pubs {
		s.kfRequests += p.kfRequests.Load()
	}
	return s
}

// hashMesh fingerprints a mesh's exact vertex bits and face indices.
func hashMesh(m *mesh.Mesh) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	for _, v := range m.Vertices {
		mix(math.Float64bits(v.X))
		mix(math.Float64bits(v.Y))
		mix(math.Float64bits(v.Z))
	}
	for _, f := range m.Faces {
		mix(uint64(f.A))
		mix(uint64(f.B))
		mix(uint64(f.C))
	}
	return h
}

// inWindow reports whether a due stamp falls in the measured window.
func (r *run) inWindow(dueUs int64) bool { return dueUs >= r.measureUs && dueUs < r.endUs }

// ladderLoop is the harness's open-loop sender: frame i is due at
// t0 + i/fps whatever happened to frame i-1, and is charged from that
// due time, so a late generator or a stalled transmit shows in m2p.
func (r *run) ladderLoop(p *pubRun) {
	for i := 0; ; i++ {
		due := dueMicros(r.t0, i, r.spec.FPS)
		sleepUntil(due)
		if r.stop.Load() {
			return
		}
		rec := pubRec{due: due, traced: r.tracing.Load()}
		start := nowNs()
		rec.late = start - due*1000
		lf, err := p.ladder.EncodeAll(r.topo.corpus.at(p.idx, i))
		encEnd := nowNs()
		if err != nil {
			r.fail("pub-%d frame %d: encode: %v", p.idx, i, err)
			p.recs = append(p.recs, rec)
			continue
		}
		err = p.sender.TransmitLadder(lf, time.UnixMicro(due))
		if err != nil {
			if !r.stop.Load() {
				r.fail("pub-%d frame %d: transmit: %v", p.idx, i, err)
			}
			return
		}
		if rec.traced {
			rec.encStart, rec.encEnd, rec.txEnd = start, encEnd, nowNs()
			for ti, enc := range lf.Tiers {
				for _, ch := range enc.Channels {
					rec.rung[ti] += int32(len(ch.Payload))
				}
			}
		}
		p.recs = append(p.recs, rec)
	}
}

// stagedLoop hands the clock to the product's staged sender: RunSender
// paces capture at Interval, stamps each frame as it asks for it, and
// sheds stale frames between its stages. The harness only sees the
// Source callback, where it records when each frame was asked for.
func (r *run) stagedLoop(ctx context.Context, p *pubRun) {
	interval := time.Duration(float64(time.Second) / r.spec.FPS)
	// Sites are not frame-locked: spread the publishers evenly over one
	// frame interval (a fixed offset, so no seed changes the contention).
	offset := interval * time.Duration(p.idx) / time.Duration(len(r.pubs))
	sleepUntil(r.t0 + offset.Microseconds())
	_, err := pipeline.RunSender(ctx, p.sender, func(i int) (capture.Capture, bool) {
		now := time.Now()
		if i == 0 {
			p.t0 = now.UnixNano()
		}
		// RunSender's ticker skips a tick it could not serve, so frame i
		// is not bound to t0 + i × Interval; lateness is how far past the
		// ticker's grid (anchored at frame 0) the frame was asked for. A
		// skipped tick is a frame that was due and never made (see dueIn).
		phase := (now.UnixNano() - p.t0 + int64(interval)/2) % int64(interval)
		p.recs = append(p.recs, pubRec{due: now.UnixMicro(), late: max(phase-int64(interval)/2, 0)})
		return r.topo.corpus.at(p.idx, i), !r.stop.Load()
	}, pipeline.SenderOptions{Interval: interval, QueueDepth: 1})
	if err != nil && !r.stop.Load() && !sessionEnded(err) {
		r.fail("pub-%d: staged sender: %v", p.idx, err)
	}
}

// dueIn counts the publisher's frames that came due in the measured
// window: the frames the open-loop sender started, or — under the staged
// sender, which silently skips ticks — the slots of its capture grid.
func (p *pubRun) dueIn(r *run) int {
	if p.ladder == nil {
		return int(math.Round(float64(r.endUs-r.measureUs) * r.spec.FPS / 1e6))
	}
	n := 0
	for _, rec := range p.recs {
		if r.inWindow(rec.due) {
			n++
		}
	}
	return n
}

// frameIndex maps a wire capture stamp back to the publisher's play-out
// frame, or -1. The ladder sender stamps the due time itself; the
// staged sender stamps just before it calls Source, so the frame is the
// first one asked for at or after the stamp.
func (p *pubRun) frameIndex(r *run, stampUs int64) int {
	i := 0
	if p.ladder != nil {
		i = frameAtMicros(r.t0, stampUs, r.spec.FPS)
	} else {
		i = sort.Search(len(p.recs), func(k int) bool { return p.recs[k].due >= stampUs })
	}
	if i < 0 || i >= len(p.recs) {
		return -1
	}
	return i
}

// decodeLoop is a decode leg: collect a media frame, decode it in the
// leg's DecodeService tenant, rasterise it to the probe camera. Photon
// is the instant RenderMesh returns.
func (r *run) decodeLoop(ctx context.Context, l *legRun) {
	frame := render.NewFrame(r.topo.corpus.probe)
	shader := capture.SkinShader()
	for {
		raw, err := l.rcv.NextRaw()
		if err != nil {
			if !r.stop.Load() && !sessionEnded(err) {
				l.failures = append(l.failures, fmt.Sprintf("recv: %v", err))
			}
			return
		}
		if raw.Trace == nil {
			l.failures = append(l.failures, "media frame without a trace extension")
			continue
		}
		if len(l.raws) < soloFrames && !r.spec.Ladder {
			l.raws = append(l.raws, core.RawFrame{Frames: raw.Frames})
		}
		traced := r.tracing.Load()
		arrived := raw.Trace.ArrivedAt.UnixNano()
		decStart := nowNs()
		data, err := l.tenant.Decode(ctx, raw)
		decEnd := nowNs()
		if err != nil || data.Mesh == nil {
			if r.stop.Load() {
				return
			}
			l.failures = append(l.failures, fmt.Sprintf("trace %d: decode: mesh=%v err=%v", raw.Trace.TraceID, data.Mesh != nil, err))
			continue
		}
		renStart := nowNs()
		frame.Clear()
		render.RenderMesh(frame, data.Mesh, shader)
		photon := nowNs()

		rec := legRec{
			id: raw.Trace.TraceID, due: int64(raw.Trace.CaptureMicros), photon: photon,
			tier: -1, hops: int8(len(data.Trace.Hops)), decNs: decEnd - decStart,
			hash: hashMesh(data.Mesh),
		}
		for _, f := range raw.Frames {
			if f.Tiered() {
				rec.tier = int8(f.Tier)
			}
		}
		if rec.id <= l.lastID {
			l.failures = append(l.failures, fmt.Sprintf("trace %d after %d: IDs not strictly increasing", rec.id, l.lastID))
		}
		l.lastID = rec.id
		if r.inWindow(rec.due) {
			if l.spec.Measured && l.shown%chamferEvery == 0 {
				rec.sample = data.Mesh.SamplePoints(chamferPoints)
			}
			l.shown++
		}
		if traced {
			rec.t = &tracedRec{trace: *data.Trace, arrived: arrived, decStart: decStart, decEnd: decEnd, renStart: renStart}
		}
		l.recs = append(l.recs, rec)
	}
}

// sinkLoop is a healthy subscriber that costs the receiving site
// nothing: it reads (the session CRC-checks), stamps the arrival of
// each media frame's closing wire frame, and discards.
func (r *run) sinkLoop(l *legRun) {
	for {
		f, err := l.sess.Recv()
		if err != nil {
			if !r.stop.Load() && !sessionEnded(err) {
				l.failures = append(l.failures, fmt.Sprintf("recv: %v", err))
			}
			return
		}
		if f.Type != transport.TypeSemantic || f.Flags&transport.FlagEndOfFrame == 0 {
			continue
		}
		if !f.Traced() {
			l.failures = append(l.failures, "media frame without a trace extension")
			continue
		}
		if f.TraceID <= l.lastID {
			l.failures = append(l.failures, fmt.Sprintf("trace %d after %d: IDs not strictly increasing", f.TraceID, l.lastID))
		}
		l.lastID = f.TraceID
		l.recs = append(l.recs, legRec{id: f.TraceID, due: int64(f.CaptureTS), photon: nowNs(), tier: int8(f.Tier)})
	}
}

func sleepUntil(us int64) { time.Sleep(time.Until(time.UnixMicro(us))) }

// runWindow sleeps through the measured window in slots of at most a
// second, accounting process CPU per slot. A traced pass runs three
// slots in four with the harness's spans on and the fourth with them
// off — the same load on the same stretch of motion — so the difference
// in CPU between the two kinds is what the spans cost.
func (r *run) runWindow() {
	slot := min(time.Second, r.cfg.window/8).Microseconds()
	for k, t := 0, r.measureUs; t < r.endUs; k, t = k+1, t+slot {
		on := r.cfg.trace && k%4 != 0
		r.tracing.Store(on)
		cpu0, wall0 := cpuNanos(), time.Now()
		sleepUntil(min(t+slot, r.endUs))
		r.slots = append(r.slots, cpuSlot{
			cpuS: float64(cpuNanos()-cpu0) / 1e9, wallS: time.Since(wall0).Seconds(), traced: on,
		})
	}
}

// cpuCores is CPU seconds per wall second over the slots include picks.
func (r *run) cpuCores(include func(cpuSlot) bool) float64 {
	var cpu, wall float64
	for _, s := range r.slots {
		if include(s) {
			cpu, wall = cpu+s.cpuS, wall+s.wallS
		}
	}
	return ratio(cpu, wall)
}

// setUp builds the corpus and wires the topology cfg.setups times and
// keeps the last. The reported set-up time is the median; the live-heap
// baseline is what the harness's own inputs occupy before any of the
// program's state exists.
func setUp(spec *workloadSpec, cfg runConfig) (*topology, float64, uint64, error) {
	var times []float64
	for k := 0; ; k++ {
		begin := time.Now()
		c := buildCorpus(cfg.seed, cfg.corpusFrames, spec.Publishers, spec.FPS)
		built := time.Since(begin)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		begin = time.Now()
		topo, err := buildTopology(spec, c, cfg.seed)
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, (built + time.Since(begin)).Seconds())
		if k == cfg.setups-1 {
			return topo, median(times), ms.HeapAlloc, nil
		}
		topo.close()
	}
}

// execute runs one pass: set-up, warm-up, the measured window, drain,
// teardown. It returns with every goroutine it started joined.
func execute(spec *workloadSpec, cfg runConfig) (*passResult, error) {
	topo, setupS, heapBase, err := setUp(spec, cfg)
	if err != nil {
		return nil, err
	}
	r := &run{spec: spec, cfg: cfg, topo: topo}
	for _, p := range topo.pubs {
		r.pubs = append(r.pubs, &pubRun{publisher: p})
	}
	for _, l := range topo.legs {
		r.legs = append(r.legs, &legRun{leg: l})
	}
	r.t0 = time.Now().Add(100 * time.Millisecond).UnixMicro()
	r.measureUs = r.t0 + cfg.warmup.Microseconds()
	r.endUs = r.measureUs + cfg.window.Microseconds()

	ctx, cancel := context.WithCancel(context.Background())
	var loops sync.WaitGroup
	for _, l := range r.legs {
		loops.Add(1)
		go func() {
			defer loops.Done()
			if l.spec.Kind == legSink {
				r.sinkLoop(l)
			} else {
				r.decodeLoop(ctx, l)
			}
		}()
	}
	for _, p := range r.pubs {
		loops.Add(1)
		go func() {
			defer loops.Done()
			if p.ladder != nil {
				r.ladderLoop(p)
			} else {
				r.stagedLoop(ctx, p)
			}
		}()
	}

	sleepUntil(r.measureUs)
	begin := r.snapshot()
	stopPoll := func() {}
	if cfg.trace {
		stopPoll = r.poolWaits.start()
	}
	r.runWindow()
	end := r.snapshot()
	time.Sleep(cfg.drain)
	stopPoll()

	// Quiesce before reading the live heap: with the publishers stopped
	// and the last frames displayed, what a forced GC leaves is the
	// program's standing state, not whatever was in flight.
	r.stop.Store(true)
	time.Sleep(300 * time.Millisecond)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	cancel()
	topo.close()
	loops.Wait()

	res := r.evaluate(begin, end)
	res.set("setup_s", setupS, 0)
	res.set("live_heap_mb", math.Max(float64(ms.HeapAlloc)-float64(heapBase), 0)/1e6, 0)
	return res, nil
}
