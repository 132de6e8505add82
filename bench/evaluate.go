package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/metrics"
)

// metricValue is one reported number; N is the sample count behind it
// (0 for counters and ratios that have none).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// passResult is what one pass over one workload reports.
type passResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	WindowS   float64                `json:"window_s"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Failures are the errors behind Failed and Correct (capped).
	Failures []string `json:"failures,omitempty"`
	// Invalid, when set, says why the run is not a measurement at all.
	Invalid string `json:"invalid,omitempty"`
	// Layers is the traced pass's span table (duration and self time per
	// span name), for people; the named metrics above are the contract.
	Layers []layerRow `json:"layers,omitempty"`

	// spans holds one span tree per traced frame of a measured leg.
	spans [][]span
	units map[string]string
}

func newPassResult(spec *workloadSpec, cfg runConfig) *passResult {
	res := &passResult{
		Workload: spec.Name, Seed: cfg.seed, Traced: cfg.trace,
		Metrics: map[string]metricValue{}, units: map[string]string{},
	}
	decls := endToEndMetrics
	if cfg.trace {
		decls = perLayerMetrics
	}
	for _, d := range decls {
		res.units[d.Name] = d.Unit
	}
	return res
}

// set records a metric the pass declares; names the pass does not
// declare (end-to-end names in a traced pass and vice versa) are
// dropped, so each pass emits exactly its own list.
func (res *passResult) set(name string, v float64, n int) {
	if unit, ok := res.units[name]; ok {
		res.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
	}
}

// legFrames is what one leg displayed inside the measured window.
type legFrames struct {
	leg  *legRun
	pub  *pubRun
	due  int // frames of the leg's publisher that came due in the window
	recs []*legRec
	m2p  []float64 // ms, parallel to recs
}

// collect gathers, per leg, the frames whose play-out frame came due in
// the measured window. Membership goes by the publisher's own record of
// the frame, so a leg and its publisher never disagree about an edge.
func (r *run) collect() []legFrames {
	dueCount := make([]int, len(r.pubs))
	for pi, p := range r.pubs {
		dueCount[pi] = p.dueIn(r)
	}
	out := make([]legFrames, len(r.legs))
	for li, l := range r.legs {
		p := r.pubs[l.spec.Pub]
		lf := legFrames{leg: l, pub: p, due: dueCount[l.spec.Pub]}
		for k := range l.recs {
			rec := &l.recs[k]
			i := p.frameIndex(r, rec.due)
			if i < 0 || !r.inWindow(p.recs[i].due) {
				continue
			}
			lf.recs = append(lf.recs, rec)
			lf.m2p = append(lf.m2p, float64(rec.photon-rec.due*1000)/1e6)
		}
		out[li] = lf
	}
	return out
}

// evaluate turns the run's records into the pass's metrics and checks;
// begin→end is the measured window.
func (r *run) evaluate(begin, end snapshot) *passResult {
	res := newPassResult(r.spec, r.cfg)
	wall := end.at.Sub(begin.at).Seconds()
	res.WindowS = wall
	frames := r.collect()

	// End to end, over the measured legs.
	var m2p, genLate []float64
	var score float64
	var due, shown, inBudget, published, legs int
	minHops := math.MaxInt
	for _, lf := range frames {
		if !lf.leg.spec.Measured {
			continue
		}
		legs++
		due += lf.due
		shown += len(lf.recs)
		m2p = append(m2p, lf.m2p...)
		for k, ms := range lf.m2p {
			if ms <= budgetMs {
				inBudget++
				score++
			} else {
				score += budgetMs / ms
			}
			minHops = min(minHops, int(lf.recs[k].hops))
		}
	}
	if shown == 0 {
		minHops = 0
	}
	for _, p := range r.pubs {
		for _, rec := range p.recs {
			if r.inWindow(rec.due) {
				published++
				genLate = append(genLate, float64(rec.late)/1e6)
			}
		}
	}
	cpuCores := r.cpuCores(func(cpuSlot) bool { return true })
	chamferMm, chamferN := r.chamfer(frames)
	res.Attempted = max(due, 1)
	res.set("m2p_p50_ms", percentile(m2p, 0.50), len(m2p))
	res.set("m2p_p95_ms", percentile(m2p, 0.95), len(m2p))
	res.set("budget_score", ratio(score, float64(due)), due)
	res.set("displayed_fps", ratio(float64(shown), float64(legs)*wall), shown)
	res.set("chamfer_mm", chamferMm, chamferN)
	res.set("harness.cpu_cores", cpuCores, 0)
	res.set("allocs_per_frame", ratio(float64(end.mallocs-begin.mallocs), float64(published)), published)
	res.set("alloc_kb_per_frame", ratio(float64(end.allocBytes-begin.allocBytes), float64(published))/1e3, published)
	res.set("harness.gen_late_p95_ms", percentile(genLate, 0.95), len(genLate))
	res.set("harness.in_budget_frac", ratio(float64(inBudget), float64(due)), due)
	res.set("cluster.hop_records", float64(minHops), shown)

	if r.cfg.trace {
		r.layerMetrics(res, frames, begin, end)
		if r.spec.KernelProbes {
			runKernelProbes(res, r.topo.corpus)
		}
		for _, d := range perLayerMetrics {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.set(d.Name, 0, 0) // a layer this workload does not have
			}
		}
	}

	// Failures: every error any loop saw, plus the output checks.
	fails := append([]string(nil), r.failures...)
	for _, l := range r.legs {
		for _, f := range l.failures {
			fails = append(fails, l.name+": "+f)
		}
	}
	fails = append(fails, r.checkMeshes()...)
	fails = append(fails, r.checkSinkGaps(frames, begin, end)...)
	if chamferMm > chamferLimitMm {
		fails = append(fails, fmt.Sprintf("sampled chamfer %.1f mm over the %.0f mm limit", chamferMm, chamferLimitMm))
	}
	if shown == 0 {
		fails = append(fails, "no frame displayed on a measured leg")
	}
	res.Failed = len(fails)
	res.Correct = len(fails) == 0
	if len(fails) > 20 {
		fails = append(fails[:20], fmt.Sprintf("… and %d more", len(fails)-20))
	}
	res.Failures = fails

	nproc := float64(runtime.NumCPU())
	switch late, limit := percentile(genLate, 0.95), maxGenLateShare*1e3/r.spec.FPS; {
	case late > limit:
		res.Invalid = fmt.Sprintf("generator ran late: p95 %.2f ms > %.2f ms", late, limit)
	case cpuCores > maxCPUShareOfProc*nproc:
		res.Invalid = fmt.Sprintf("box oversubscribed: %.2f cores busy of %.0f", cpuCores, nproc)
	case r.spec.MinHops > 0 && shown > 0 && minHops < r.spec.MinHops:
		res.Invalid = fmt.Sprintf("truncated waterfall: a frame carried %d hop records, want %d", minHops, r.spec.MinHops)
	}
	return res
}

// chamfer is the mean chamfer distance (mm) of the sampled displayed
// meshes against the ground-truth mesh of the capture they came from.
func (r *run) chamfer(frames []legFrames) (float64, int) {
	var sum float64
	n := 0
	for _, lf := range frames {
		for _, rec := range lf.recs {
			if rec.sample == nil {
				continue
			}
			truth := r.topo.corpus.truth(lf.pub.idx, lf.pub.frameIndex(r, rec.due))
			rep := metrics.CompareClouds(rec.sample, truth.Mesh.SamplePoints(chamferPoints), 0)
			sum += rep.Chamfer * 1e3
			n++
		}
	}
	return ratio(sum, float64(n)), n
}

// checkMeshes compares mesh fingerprints. Two decode legs that were
// served the same frame at the same rung must display the same mesh
// (cache hits, single-flight and warm start are all byte-exact), and on
// single-rung workloads the leading frames must also equal what a solo
// cold core.KeypointDecoder makes of the same wire frames.
func (r *run) checkMeshes() []string {
	var fails []string
	type key struct {
		pub  int
		id   uint64
		tier int8
	}
	seen := map[key]uint64{}
	firstOfPub := map[int]*legRun{}
	for _, l := range r.legs {
		if l.spec.Kind != legDecode {
			continue
		}
		if _, ok := firstOfPub[l.spec.Pub]; !ok {
			firstOfPub[l.spec.Pub] = l
		}
		for _, rec := range l.recs {
			k := key{l.spec.Pub, rec.id, rec.tier}
			if h, ok := seen[k]; ok && h != rec.hash {
				fails = append(fails, fmt.Sprintf("%s: trace %d tier %d: mesh differs from another leg's", l.name, rec.id, rec.tier))
			}
			seen[k] = rec.hash
		}
	}
	if r.spec.Ladder {
		return fails
	}
	pubs := make([]int, 0, len(firstOfPub))
	for p := range firstOfPub {
		pubs = append(pubs, p)
	}
	sort.Ints(pubs)
	for _, p := range pubs {
		l := firstOfPub[p]
		solo := &core.KeypointDecoder{Model: r.topo.corpus.model, Codec: compress.LZR(), Resolution: r.spec.DecodeRes}
		for k, raw := range l.raws {
			if k >= len(l.recs) {
				break
			}
			data, err := solo.Decode(raw.Frames)
			if err != nil || data.Mesh == nil {
				fails = append(fails, fmt.Sprintf("%s: solo decode of frame %d: %v", l.name, k, err))
				continue
			}
			if hashMesh(data.Mesh) != l.recs[k].hash {
				fails = append(fails, fmt.Sprintf("%s: trace %d: mesh differs from a solo cold decode", l.name, l.recs[k].id))
			}
		}
	}
	return fails
}

// checkSinkGaps verifies shedding is the only way a healthy leg loses a
// frame: the trace IDs a sink leg never saw inside the window must be
// covered by what its relay leg, or the trunk leg feeding its shard,
// counted as shed.
func (r *run) checkSinkGaps(frames []legFrames, begin, end snapshot) []string {
	var fails []string
	for li, lf := range frames {
		if lf.leg.spec.Kind != legSink || len(lf.recs) < 2 {
			continue
		}
		first, last := lf.recs[0].id, lf.recs[len(lf.recs)-1].id
		gaps := int(last-first) + 1 - len(lf.recs)
		shed := shedOn(begin, end, li)
		// A frame shed just outside the window can leave its gap inside.
		if gaps > shed+2 {
			fails = append(fails, fmt.Sprintf("%s: %d trace IDs missing but only %d frames shed on its path", lf.leg.name, gaps, shed))
		}
	}
	return fails
}
