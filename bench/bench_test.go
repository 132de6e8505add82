package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.95, 5}, {0.2, 1}, {0.21, 2}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10, 20, 40].
	if got, want := quartileSpread([]float64{40, 10, 20}), 30.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestPingPong(t *testing.T) {
	want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1, 0}
	for i, w := range want {
		if got := pingPong(i, 4); got != w {
			t.Errorf("pingPong(%d, 4) = %d, want %d", i, got, w)
		}
	}
	for i := 1; i < 1000; i++ {
		if d := pingPong(i, 20) - pingPong(i-1, 20); d != 1 && d != -1 {
			t.Fatalf("play-out frames %d and %d are %d apart in the sequence", i-1, i, d)
		}
	}
	if got := pingPong(7, 1); got != 0 {
		t.Errorf("pingPong over one frame = %d", got)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	const t0, fps = 1_700_000_000_000_000, 30.0
	for i := 0; i < 3000; i++ {
		due := dueMicros(t0, i, fps)
		if got := frameAtMicros(t0, due, fps); got != i {
			t.Fatalf("frame %d due at %d maps back to frame %d", i, due, got)
		}
		// The schedule never drifts: frame i is i/fps after t0 to the µs.
		if off := float64(due-t0) - float64(i)*1e6/fps; math.Abs(off) > 0.5 {
			t.Fatalf("frame %d is %.2f µs off schedule", i, off)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, false, "within bound"},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, false, "worse"},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, false, "better"},
		{"higher is better, fell", steady, []float64{80, 81, 79, 80, 80}, true, "worse"},
		{"noisy", []float64{60, 100, 140, 80, 120}, []float64{70, 110, 130, 90, 100}, false, "unresolved"},
		{"noisy but disjoint", []float64{60, 100, 140, 80, 120}, []float64{10, 30, 50, 20, 40}, false, "better"},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, 0.1, false); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{60, 100, 140, 80, 120}
	if got, _ := verdict(noisy, noisy, false, 0.1, true); got != "within bound" {
		t.Errorf("medians only: verdict = %q, want within bound", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkDeclaration holds BENCHMARK.json to exactly what the
// program emits: the same workloads and the same metric names, units
// and directions, every bound inside the contract.
func TestBenchmarkDeclaration(t *testing.T) {
	var decl benchmarkDecl
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	specs := workloads(2)
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(specs))
	}
	for i, s := range specs {
		if decl.Workloads[i].Name != s.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, decl.Workloads[i].Name, s.Name)
		}
	}
	direction := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(decl.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != direction(m.Higher) {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not a contract name", m.Name)
		}
	}
	if len(decl.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(decl.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		d := decl.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != direction(m.Higher) {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not a contract name", m.Name)
		}
	}
}

// TestWorkloads runs every workload end to end and traced with a 1 s
// window over a 20-frame corpus and checks the output's shape: every
// declared metric present and finite, no failed operation, the span
// tree telescoping to motion-to-photon. It asserts no timing.
func TestWorkloads(t *testing.T) {
	cfg := runConfig{
		seed: 7, window: time.Second, warmup: 300 * time.Millisecond, drain: time.Second,
		corpusFrames: 20, setups: 1,
	}
	specs := workloads(runtime.NumCPU())
	for i := range specs {
		spec := &specs[i]
		for _, traced := range []bool{false, true} {
			name, decls := spec.Name+"/end-to-end", endToEndMetrics
			if traced {
				name, decls = spec.Name+"/traced", perLayerMetrics
			}
			t.Run(name, func(t *testing.T) {
				cfg.trace = traced
				res, err := execute(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.Failures)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				if len(res.Metrics) != len(decls) {
					t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
						t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result does not marshal: %v", err)
				}
				if !traced {
					return
				}
				if len(res.spans) == 0 {
					t.Fatal("traced pass recorded no spans")
				}
				for _, frame := range res.spans {
					if r := residualMs(frame); r > 0.1 {
						t.Errorf("trace %d on %s: top-level spans miss motion-to-photon by %.3f ms", frame[0].Trace, frame[0].Leg, r)
					}
					for _, s := range frame {
						if !metricName.MatchString(s.Name) {
							t.Errorf("span name %q is not a contract name", s.Name)
						}
					}
				}
				frames := len(res.spans)
				if m := res.Metrics["service.decode_call_ms"]; m.N != frames {
					t.Errorf("%d frames have a span tree, %d have a decode span", frames, m.N)
				}
				path := t.TempDir() + "/spans.jsonl"
				if err := writeSpans(path, res.spans); err != nil {
					t.Fatal(err)
				}
				if info, err := os.Stat(path); err != nil || info.Size() == 0 {
					t.Errorf("span file: %v", err)
				}
			})
		}
	}
}
