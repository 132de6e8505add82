package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestFrameTraceSpans(t *testing.T) {
	// Sender clock: captured at t=1.000000 s, sent at t=1.020000 s.
	ft := FrameTrace{
		TraceID:       7,
		CaptureMicros: 1_000_000,
		SendMicros:    1_020_000,
		ArrivedAt:     time.UnixMicro(1_050_000),
		DecodedAt:     time.UnixMicro(1_130_000),
	}
	if got := ft.SenderSide(); got != 20*time.Millisecond {
		t.Errorf("SenderSide = %v, want 20ms", got)
	}
	if got := ft.Network(); got != 30*time.Millisecond {
		t.Errorf("Network = %v, want 30ms", got)
	}
	if got := ft.E2E(); got != 130*time.Millisecond {
		t.Errorf("E2E = %v, want 130ms", got)
	}
}

func TestPipelineMetricsObserveTrace(t *testing.T) {
	reg := NewRegistry()
	pm := NewPipelineMetrics(reg)
	pm.ObserveStage(StageCapture, 2*time.Millisecond)
	pm.ObserveStage(StageEncode, 5*time.Millisecond)
	pm.ObserveTrace(FrameTrace{
		TraceID:       1,
		CaptureMicros: 1_000_000,
		SendMicros:    1_020_000,
		ArrivedAt:     time.UnixMicro(1_050_000),
		DecodedAt:     time.UnixMicro(1_130_000), // 130 ms e2e: over budget
	})
	pm.ObserveTrace(FrameTrace{
		TraceID:       2,
		CaptureMicros: 2_000_000,
		SendMicros:    2_010_000,
		ArrivedAt:     time.UnixMicro(2_030_000),
		DecodedAt:     time.UnixMicro(2_040_000), // 40 ms e2e: inside budget
	})

	r := pm.Report()
	if r.Frames != 2 {
		t.Fatalf("frames = %d, want 2", r.Frames)
	}
	if r.Overruns != 1 {
		t.Errorf("overruns = %v, want 1", r.Overruns)
	}
	if r.BudgetMs != 100 {
		t.Errorf("budget = %v ms, want 100", r.BudgetMs)
	}
	byStage := map[string]StageBudget{}
	for _, s := range r.Stages {
		byStage[s.Stage] = s
	}
	for _, stage := range []string{StageCapture, StageEncode, StageSend, StageNetwork} {
		if byStage[stage].Count == 0 {
			t.Errorf("stage %q missing from report", stage)
		}
	}
	// send spans: 20 ms and 10 ms -> mean 15 ms -> 15%% of budget.
	if got := byStage[StageSend].BudgetShare; math.Abs(got-0.15) > 1e-9 {
		t.Errorf("send budget share = %v, want 0.15", got)
	}
	// Stages with no samples are omitted (render never observed).
	if _, ok := byStage[StageRender]; ok {
		t.Error("report should omit unobserved stages")
	}
	// The printed table: headline plus a header and one row per stage;
	// a sender-only report (no e2e frames) keeps the rows, an empty one
	// prints nothing.
	txt := r.String()
	if !strings.HasPrefix(txt, "motion-to-photon: ") || strings.Count(txt, "\n") != 2+len(r.Stages) {
		t.Errorf("budget table:\n%s", txt)
	}
	r.Frames = 0
	if txt := r.String(); strings.Contains(txt, "motion-to-photon") || strings.Count(txt, "\n") != 1+len(r.Stages) {
		t.Errorf("stage-only table:\n%s", txt)
	}
	if txt := (BudgetReport{}).String(); txt != "" {
		t.Errorf("empty report prints %q", txt)
	}
}

func TestPipelineMetricsNilSafe(t *testing.T) {
	var pm *PipelineMetrics
	pm.ObserveStage(StageDecode, time.Millisecond)
	pm.ObserveE2E(time.Millisecond)
	pm.ObserveTrace(FrameTrace{})
	pm.StartStage(StageRender)()
	if r := pm.Report(); r.Frames != 0 {
		t.Errorf("nil report frames = %d", r.Frames)
	}
}

func TestPipelineMetricsNegativeNetworkSkipped(t *testing.T) {
	reg := NewRegistry()
	pm := NewPipelineMetrics(reg)
	// Clock skew: arrival before the send stamp. The network span must
	// not be recorded (a negative observation would land in bucket 0 and
	// poison the histogram).
	pm.ObserveTrace(FrameTrace{
		CaptureMicros: 1_000_000,
		SendMicros:    1_020_000,
		ArrivedAt:     time.UnixMicro(1_010_000),
	})
	if n := pm.stage.With(StageNetwork).Count(); n != 0 {
		t.Errorf("negative network span recorded (%d observations)", n)
	}
	// The sender-side span is still valid and recorded.
	if n := pm.stage.With(StageSend).Count(); n != 1 {
		t.Errorf("send span observations = %d, want 1", n)
	}
}

func TestStartStageRecords(t *testing.T) {
	reg := NewRegistry()
	pm := NewPipelineMetrics(reg)
	stop := pm.StartStage(StageReconstruct)
	time.Sleep(time.Millisecond)
	stop()
	h := pm.stage.With(StageReconstruct)
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("StartStage recorded count=%d sum=%v", h.Count(), h.Sum())
	}
}
