package obs

import (
	"fmt"
	"strings"
	"time"
)

// Canonical pipeline stage names — the Figure-1 hops. Stage histograms
// accept any string, but the budget report orders these first.
const (
	StageCapture     = "capture"
	StageExtract     = "extract"
	StageEncode      = "encode"
	StageSend        = "send"
	StageNetwork     = "network"
	StageDecode      = "decode"
	StageReconstruct = "reconstruct"
	StageRender      = "render"
)

// Stages lists the canonical stage order.
var Stages = []string{
	StageCapture, StageExtract, StageEncode, StageSend,
	StageNetwork, StageDecode, StageReconstruct, StageRender,
}

// DefaultBudget is the paper's end-to-end interactivity target (§1).
const DefaultBudget = 100 * time.Millisecond

// FrameTrace is the per-frame identity and timing record threaded from
// the capture site to the receiver through the wire frame header: the
// trace ID plus the sender's capture and send wall-clock timestamps
// (unix microseconds). The receiver fills the arrival/decode times and
// derives true cross-site spans. Timestamps compare sender and receiver
// clocks directly, so they are meaningful when the sites share a clock
// (same host, netsim, NTP-disciplined deployments).
type FrameTrace struct {
	// TraceID identifies the media frame across sites (sender-assigned,
	// monotone per session).
	TraceID uint64
	// CaptureMicros is the sender wall clock at capture (unix µs).
	CaptureMicros uint64
	// SendMicros is the sender wall clock when the last wire frame of
	// the media frame was written (unix µs).
	SendMicros uint64
	// ArrivedAt is when the receiver read the last wire frame.
	ArrivedAt time.Time
	// DecodedAt is when the receiver finished decoding/reconstructing.
	DecodedAt time.Time

	// Hops is the hop-annotated path the frame carried on the wire
	// (FlagHops extension): one record per site that handled the frame,
	// in path order, terminated by the receiver's own hop. Empty for
	// legacy 24-byte traces.
	Hops []Hop
}

// Network returns the wire span: last-byte arrival minus send stamp.
func (t FrameTrace) Network() time.Duration {
	return t.ArrivedAt.Sub(microsTime(t.SendMicros))
}

// SenderSide returns the capture→send span measured at the sender
// (capture + extract + encode + serialization).
func (t FrameTrace) SenderSide() time.Duration {
	return time.Duration(t.SendMicros-t.CaptureMicros) * time.Microsecond
}

// E2E returns the motion-to-photon span up to decode completion.
func (t FrameTrace) E2E() time.Duration {
	return t.DecodedAt.Sub(microsTime(t.CaptureMicros))
}

func microsTime(us uint64) time.Time { return time.UnixMicro(int64(us)) }

// NowMicros returns the current wall clock in unix microseconds — the
// unit of the wire trace field.
func NowMicros() uint64 { return uint64(time.Now().UnixMicro()) }

// PipelineMetrics aggregates frame-pipeline latency into a registry:
// one histogram per stage (labeled), an end-to-end motion-to-photon
// histogram, derived p50/p95 gauges, and budget attribution against the
// 100 ms target. Metric names are fixed, so use one PipelineMetrics per
// registry (each process end of a session owns its own registry).
type PipelineMetrics struct {
	// Budget is the end-to-end target spans are attributed against.
	Budget time.Duration

	stage    *HistogramVec
	e2e      *Histogram
	overruns *Counter
	frames   *Counter
}

// NewPipelineMetrics registers the pipeline metric set into reg.
func NewPipelineMetrics(reg *Registry) *PipelineMetrics {
	p := &PipelineMetrics{
		Budget: DefaultBudget,
		stage: reg.Histogram("semholo_stage_latency_seconds",
			"Per-stage pipeline latency (capture/extract/encode/send/network/decode/reconstruct/render).",
			nil, "stage"),
		e2e: reg.Histogram("semholo_e2e_latency_seconds",
			"End-to-end motion-to-photon latency: capture timestamp to decode completion.",
			nil).With(),
		overruns: reg.Counter("semholo_e2e_budget_overruns_total",
			"Frames whose end-to-end latency exceeded the 100 ms interactivity budget.").With(),
		frames: reg.Counter("semholo_e2e_frames_total",
			"Media frames with end-to-end trace timing.").With(),
	}
	reg.GaugeFunc("semholo_e2e_latency_p50_seconds",
		"Median end-to-end motion-to-photon latency (bucket-interpolated).",
		func() float64 { return p.e2e.Quantile(0.50) })
	reg.GaugeFunc("semholo_e2e_latency_p95_seconds",
		"95th-percentile end-to-end motion-to-photon latency (bucket-interpolated).",
		func() float64 { return p.e2e.Quantile(0.95) })
	reg.GaugeFunc("semholo_e2e_exemplar_seconds",
		"Worst recent end-to-end observation (exemplar value).",
		func() float64 { v, _ := p.e2e.Exemplar(); return v })
	reg.GaugeFunc("semholo_e2e_exemplar_trace_id",
		"Trace ID of the worst recent end-to-end observation — look it up at /debug/trace/<id>.",
		func() float64 { _, id := p.e2e.Exemplar(); return float64(id) })
	bs := reg.Gauge("semholo_stage_budget_share",
		"Mean stage latency as a fraction of the 100 ms end-to-end budget.", "stage")
	for _, st := range Stages {
		st := st
		bs.Func(func() float64 {
			h := p.stage.With(st)
			if h.Count() == 0 {
				return 0
			}
			return h.Mean() / p.Budget.Seconds()
		}, st)
	}
	return p
}

// ObserveStage records one stage span. Nil-safe so instrumentation can
// stay unconditional at call sites.
func (p *PipelineMetrics) ObserveStage(stage string, d time.Duration) {
	if p == nil {
		return
	}
	p.stage.With(stage).ObserveDuration(d)
}

// StartStage begins a stage span; call the returned func to record it.
func (p *PipelineMetrics) StartStage(stage string) func() {
	if p == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { p.ObserveStage(stage, time.Since(begin)) }
}

// ObserveE2E records one frame's motion-to-photon latency and its
// budget verdict. Nil-safe.
func (p *PipelineMetrics) ObserveE2E(d time.Duration) {
	p.ObserveE2EExemplar(d, 0)
}

// ObserveE2EExemplar is ObserveE2E carrying the frame's trace ID, so the
// e2e histogram can retain the worst recent frame as an exemplar —
// the entry point to /debug/trace/<id>. Nil-safe.
func (p *PipelineMetrics) ObserveE2EExemplar(d time.Duration, traceID uint64) {
	if p == nil {
		return
	}
	if traceID != 0 {
		p.e2e.ObserveExemplar(d.Seconds(), traceID)
	} else {
		p.e2e.ObserveDuration(d)
	}
	p.frames.Inc()
	if d > p.Budget {
		p.overruns.Inc()
	}
}

// E2EExemplar returns the worst recent e2e observation and its trace ID
// (zeros before any exemplar-carrying observation). Nil-safe.
func (p *PipelineMetrics) E2EExemplar() (seconds float64, traceID uint64) {
	if p == nil {
		return 0, 0
	}
	return p.e2e.Exemplar()
}

// ObserveTrace records the receiver-side spans a completed FrameTrace
// implies: network, end-to-end, and the sender-side aggregate. Nil-safe.
func (p *PipelineMetrics) ObserveTrace(t FrameTrace) {
	if p == nil {
		return
	}
	if t.SendMicros >= t.CaptureMicros {
		p.ObserveStage(StageSend, t.SenderSide())
	}
	if !t.ArrivedAt.IsZero() {
		if n := t.Network(); n >= 0 {
			p.ObserveStage(StageNetwork, n)
		}
	}
	if !t.DecodedAt.IsZero() {
		p.ObserveE2EExemplar(t.E2E(), t.TraceID)
	}
}

// StageBudget is one row of the budget-attribution report.
type StageBudget struct {
	Stage string `json:"stage"`
	Count uint64 `json:"count"`
	// MeanMs / P50Ms / P95Ms are milliseconds for readability.
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	// BudgetShare is the stage mean over the end-to-end budget.
	BudgetShare float64 `json:"budget_share"`
}

// BudgetReport summarizes how the motion-to-photon budget is spent.
type BudgetReport struct {
	BudgetMs float64       `json:"budget_ms"`
	Frames   uint64        `json:"frames"`
	E2EP50Ms float64       `json:"e2e_p50_ms"`
	E2EP95Ms float64       `json:"e2e_p95_ms"`
	Overruns float64       `json:"overruns"`
	Stages   []StageBudget `json:"stages"`
}

// String renders the report as the budget table the cmds print on exit:
// the motion-to-photon headline when the peer shipped trace timestamps,
// then one row per observed stage. Empty when nothing was observed.
func (r BudgetReport) String() string {
	var b strings.Builder
	if r.Frames > 0 {
		fmt.Fprintf(&b, "motion-to-photon: p50 %.1f ms  p95 %.1f ms over %d frames (budget %.0f ms, %d overruns)\n",
			r.E2EP50Ms, r.E2EP95Ms, r.Frames, r.BudgetMs, int(r.Overruns))
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s %10s\n", "stage", "count", "mean(ms)", "p50(ms)", "p95(ms)", "budget%")
	}
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-14s %8d %10.2f %10.2f %10.2f %10.1f\n",
			s.Stage, s.Count, s.MeanMs, s.P50Ms, s.P95Ms, 100*s.BudgetShare)
	}
	return b.String()
}

// Report computes the budget attribution across the canonical stages
// (stages with no samples are omitted).
func (p *PipelineMetrics) Report() BudgetReport {
	if p == nil {
		return BudgetReport{}
	}
	r := BudgetReport{
		BudgetMs: 1000 * p.Budget.Seconds(),
		Frames:   p.e2e.Count(),
		E2EP50Ms: 1000 * p.e2e.Quantile(0.50),
		E2EP95Ms: 1000 * p.e2e.Quantile(0.95),
		Overruns: p.overruns.Value(),
	}
	for _, st := range Stages {
		h := p.stage.With(st)
		if h.Count() == 0 {
			continue
		}
		r.Stages = append(r.Stages, StageBudget{
			Stage:       st,
			Count:       h.Count(),
			MeanMs:      1000 * h.Mean(),
			P50Ms:       1000 * h.Quantile(0.50),
			P95Ms:       1000 * h.Quantile(0.95),
			BudgetShare: h.Mean() / p.Budget.Seconds(),
		})
	}
	return r
}
