package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"strings"
	"time"

	"semholo/internal/obs"
)

// span is one timed interval of one frame on one leg. Spans of a frame
// share Trace and Leg; Parent indexes into the frame's own span list
// (-1 for the root, which runs from due to photon).
type span struct {
	Trace  uint64 `json:"trace"`
	Leg    string `json:"leg"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // unix ns
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// poolWaitLog collects the DecodeService's pool-wait flight events. The
// flight recorder is a 4096-slot ring that a busy run laps in seconds,
// so the log polls it while the traced window runs.
type poolWaitLog struct {
	lastSeq uint64
	// byFrame[site][trace ID] = the wait's [start, end] in unix ns.
	byFrame map[string]map[uint64][2]int64
}

func (p *poolWaitLog) poll() {
	for _, ev := range obs.Flight.Events() {
		if ev.Seq <= p.lastSeq {
			continue
		}
		p.lastSeq = ev.Seq
		if ev.Kind != obs.EvPoolWait || !strings.HasPrefix(ev.Site, "service:") {
			continue
		}
		if p.byFrame == nil {
			p.byFrame = map[string]map[uint64][2]int64{}
		}
		tenant := strings.TrimPrefix(ev.Site, "service:")
		if p.byFrame[tenant] == nil {
			p.byFrame[tenant] = map[uint64][2]int64{}
		}
		end := int64(ev.Micros) * 1000
		p.byFrame[tenant][ev.TraceID] = [2]int64{end - ev.A*1000, end}
	}
}

// start polls four times a second until the returned stop is called;
// stop polls once more and waits for the poller to exit, after which
// byFrame is safe to read.
func (p *poolWaitLog) start() (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.poll()
			case <-done:
				p.poll()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// frameSpans builds one displayed frame's span tree. The harness's own
// call boundaries bracket the path; what happened between transmit and
// receive is spliced in from the hop records the program already put on
// the wire (obs.FrameTrace.Waterfall). The root's children are
// contiguous, so they telescope to motion-to-photon by construction.
func frameSpans(leg string, rec *legRec, pub *pubRec, poolWait [2]int64) []span {
	spans := []span{{Trace: rec.id, Leg: leg, Name: "frame", Parent: -1, Start: rec.due * 1000, End: rec.photon}}
	add := func(parent int, name string, start, end int64) int {
		spans = append(spans, span{Trace: rec.id, Leg: leg, Name: name, Parent: parent, Start: start, End: end})
		return len(spans) - 1
	}
	relays := 0
	for _, h := range rec.t.trace.Hops {
		if h.Kind == obs.HopRelayIngress {
			relays++
		}
	}
	relay, relaySpan := -1, -1
	// egress files a relay's queue wait or write under the relay's dwell
	// span: by the trunk name on every relay but the last, by the
	// subscriber-leg name on the last.
	egress := func(trunkName, legName string, from, to int64) {
		parent := 0 // the ingress hop was shed from a full path
		if relaySpan >= 0 {
			parent = relaySpan
			spans[parent].End = to
		}
		if relay < relays-1 {
			add(parent, trunkName, from, to)
		} else {
			add(parent, legName, from, to)
		}
	}
	for _, s := range rec.t.trace.Waterfall() {
		from, to := int64(s.FromMicros)*1000, int64(s.ToMicros)*1000
		switch s.Label {
		case "sender":
			dwell := add(0, "core.sender_dwell", from, to)
			if pub != nil && pub.traced {
				add(dwell, "harness.gen_late", from, pub.encStart)
				add(dwell, "core.encode", pub.encStart, pub.encEnd)
				add(dwell, "core.transmit", pub.encEnd, min(pub.txEnd, to))
			}
		case "wire→relay-ingress":
			relay++
			if relay == 0 {
				add(0, "netsim.uplink", from, to)
			} else {
				add(0, "cluster.trunk_transit", from, to)
			}
		case "relay-ingress":
			if relay <= 0 {
				relaySpan = add(0, "core.relay_dwell", from, to)
				add(relaySpan, "core.relay_ingress", from, to)
			} else {
				relaySpan = add(0, "cluster.child_dwell", from, to)
				add(relaySpan, "cluster.child_ingress", from, to)
			}
		case "queue→relay-egress":
			egress("queue.trunk_dwell", "queue.egress_dwell", from, to)
		case "relay-egress":
			egress("core.trunk_write", "core.egress_write", from, to)
		case "wire→service":
			// The service stamps its hop inside Decode; the harness knows
			// when the frame arrived and when it called Decode.
			add(0, "netsim.downlink", from, rec.t.arrived)
			add(0, "transport.recv_gap", rec.t.arrived, rec.t.decStart)
		case "service":
			call := add(0, "service.decode_call", rec.t.decStart, rec.t.decEnd)
			if poolWait[1] != 0 {
				add(call, "service.pool_wait", poolWait[0], poolWait[1])
			}
		}
	}
	add(0, "render.rasterize", rec.t.renStart, rec.photon)
	return spans
}

// residualMs is how far a frame's top-level spans are from adding up to
// its root: |m2p − Σ children|.
func residualMs(spans []span) float64 {
	sum := 0.0
	for _, s := range spans[1:] {
		if s.Parent == 0 {
			sum += s.ms()
		}
	}
	return math.Abs(spans[0].ms() - sum)
}

// layerRow is one line of the per-layer table: a span name's duration
// and its self time (duration minus what its children cover).
type layerRow struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	SelfP50  float64 `json:"self_p50_ms"`
	ShareM2P float64 `json:"share_of_m2p_p50"`
}

// layerTable folds every frame's span tree into one row per span name.
func layerTable(frames [][]span) []layerRow {
	dur, self := map[string][]float64{}, map[string][]float64{}
	var order []string
	for _, frame := range frames {
		children := make([]float64, len(frame))
		for _, s := range frame[1:] {
			children[s.Parent] += s.ms()
		}
		for i, s := range frame {
			if _, ok := dur[s.Name]; !ok {
				order = append(order, s.Name)
			}
			dur[s.Name] = append(dur[s.Name], s.ms())
			self[s.Name] = append(self[s.Name], math.Max(s.ms()-children[i], 0))
		}
	}
	root := median(dur["frame"])
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, layerRow{
			Name: name, N: len(dur[name]),
			P50Ms: median(dur[name]), P95Ms: percentile(dur[name], 0.95),
			SelfP50: median(self[name]), ShareM2P: ratio(median(dur[name]), root),
		})
	}
	return rows
}

// writeSpans writes every frame's spans as JSON lines, once, after the run.
func writeSpans(path string, frames [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, frame := range frames {
		for _, s := range frame {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics computes the per-layer metrics of a traced pass from the
// spans of the measured legs and the counters the program keeps.
func (r *run) layerMetrics(res *passResult, frames []legFrames, begin, end snapshot) {
	wall := end.at.Sub(begin.at).Seconds()
	durs := map[string][]float64{}
	var residual, decodeAll, bystander, arrival []float64
	var sinkGot, sinkDue int
	var legBytes, shown, dropped, offered, switches, tierSum, legs int64
	var util float64
	for li, lf := range frames {
		spec := lf.leg.spec
		for _, rec := range lf.recs {
			decodeAll = append(decodeAll, float64(rec.decNs)/1e6)
		}
		switch {
		case spec.Kind == legSink:
			sinkGot += len(lf.recs)
			sinkDue += lf.due
			arrival = append(arrival, lf.m2p...)
			continue
		case !spec.Measured:
			bystander = append(bystander, lf.m2p...)
			continue
		}
		legs++
		legBytes += end.linkBytes[li] - begin.linkBytes[li]
		shown += int64(len(lf.recs))
		dropped += int64(shedOn(begin, end, li))
		offered += int64(lf.due)
		switches += int64(end.own[li].TierSwitches - begin.own[li].TierSwitches)
		tierSum += int64(end.own[li].Tier)
		if bw := spec.Down.Bandwidth; bw > 0 {
			util += float64(end.linkBytes[li]-begin.linkBytes[li]) * 8 / bw / wall
		}
		for _, rec := range lf.recs {
			if rec.t == nil {
				continue
			}
			var pub *pubRec
			if i := lf.pub.frameIndex(r, rec.due); i >= 0 {
				pub = &lf.pub.recs[i]
			}
			spans := frameSpans(lf.leg.name, rec, pub, r.poolWaits.byFrame[lf.leg.name][rec.id])
			residual = append(residual, residualMs(spans))
			for _, s := range spans {
				durs[s.Name] = append(durs[s.Name], s.ms())
			}
			res.spans = append(res.spans, spans)
		}
	}
	res.Layers = layerTable(res.spans)

	// Generator-side spans are per published frame, not per leg.
	var encode, transmit []float64
	var rung [3]float64
	traced := 0
	for _, p := range r.pubs {
		for _, rec := range p.recs {
			if !rec.traced || !r.inWindow(rec.due) {
				continue
			}
			traced++
			encode = append(encode, float64(rec.encEnd-rec.encStart)/1e6)
			transmit = append(transmit, float64(rec.txEnd-rec.encEnd)/1e6)
			for i := range rung {
				rung[i] += float64(rec.rung[i])
			}
		}
	}
	p50 := func(name string) (float64, int) { return median(durs[name]), len(durs[name]) }
	setSpan := func(metric, spanName string) {
		v, n := p50(spanName)
		res.set(metric, v, n)
	}
	res.set("core.encode_ms", median(encode), len(encode))
	res.set("core.encode_p95_ms", percentile(encode, 0.95), len(encode))
	res.set("core.transmit_ms", median(transmit), len(transmit))
	res.set("core.ladder_kb_per_frame", ratio(rung[0]+rung[1]+rung[2], float64(traced))/1e3, traced)
	for i, name := range []string{"core.rung0_bytes", "core.rung1_bytes", "core.rung2_bytes"} {
		res.set(name, ratio(rung[i], float64(traced)), traced)
	}
	setSpan("core.sender_dwell_ms", "core.sender_dwell")
	setSpan("netsim.uplink_ms", "netsim.uplink")
	setSpan("netsim.downlink_ms", "netsim.downlink")
	res.set("netsim.downlink_util", ratio(util, float64(legs)), 0)
	setSpan("core.relay_ingress_ms", "core.relay_ingress")
	setSpan("queue.egress_dwell_ms", "queue.egress_dwell")
	res.set("queue.egress_dwell_p95_ms", percentile(durs["queue.egress_dwell"], 0.95), len(durs["queue.egress_dwell"]))
	res.set("core.relay_shed_frac", ratio(float64(dropped), float64(offered)), int(offered))
	res.set("core.bystander_m2p_p95_ms", percentile(bystander, 0.95), len(bystander))
	res.set("transport.tier_switches", float64(switches), 0)
	res.set("transport.final_tier", ratio(float64(tierSum), float64(legs)), 0)
	res.set("core.keyframe_requests", float64(end.kfRequests-begin.kfRequests), 0)
	res.set("transport.leg_bytes_per_frame", ratio(float64(legBytes), float64(shown)), int(shown))
	setSpan("cluster.trunk_transit_ms", "cluster.trunk_transit")
	setSpan("cluster.child_dwell_ms", "cluster.child_dwell")
	setSpan("transport.recv_gap_ms", "transport.recv_gap")
	setSpan("service.decode_call_ms", "service.decode_call")
	res.set("service.decode_call_p95_ms", percentile(durs["service.decode_call"], 0.95), len(durs["service.decode_call"]))
	setSpan("service.pool_wait_ms", "service.pool_wait")
	res.set("service.pool_wait_p95_ms", percentile(durs["service.pool_wait"], 0.95), len(durs["service.pool_wait"]))
	busy := 0.0
	for _, ms := range decodeAll {
		busy += ms / 1e3
	}
	res.set("service.busy_frac", busy/(wall*float64(r.topo.svc.Pool().Capacity())), len(decodeAll))
	hits, misses := end.recon.MeshHits-begin.recon.MeshHits, end.recon.MeshMisses-begin.recon.MeshMisses
	reused, evaluated := end.recon.SamplesReused-begin.recon.SamplesReused, end.recon.SamplesEvaluated-begin.recon.SamplesEvaluated
	res.set("avatar.cache_hit_rate", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	res.set("avatar.crosstenant_hits", float64(end.recon.CrossTenantHits-begin.recon.CrossTenantHits), 0)
	res.set("mesh.sample_reuse_rate", ratio(float64(reused), float64(reused+evaluated)), 0)
	res.set("avatar.capsule_tests_per_sample",
		ratio(float64(end.field.CapsuleTests-begin.field.CapsuleTests), float64(end.field.Samples-begin.field.Samples)), 0)
	setSpan("render.rasterize_ms", "render.rasterize")
	res.set("fanout.arrival_p50_ms", median(arrival), len(arrival))
	res.set("fanout.arrival_p95_ms", percentile(arrival, 0.95), len(arrival))
	res.set("fanout.delivered_frac", ratio(float64(sinkGot), float64(sinkDue)), sinkGot)
	res.set("harness.span_residual_ms", percentile(residual, 0.95), len(residual))

	// What the harness's own spans cost: CPU per second in the slots that
	// ran with them on against the slots that ran the same load with
	// them off.
	untraced := r.cpuCores(func(s cpuSlot) bool { return !s.traced })
	tracedCPU := r.cpuCores(func(s cpuSlot) bool { return s.traced })
	res.set("obs.trace_overhead_frac", ratio(tracedCPU-untraced, untraced), 0)
}
