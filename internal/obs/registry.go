// Package obs is SemHolo's unified observability layer: a process-wide
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with label support, exported in Prometheus text format and
// JSON), end-to-end frame tracing against the paper's <100 ms
// motion-to-photon budget (§1), and a debug HTTP server exposing
// /metrics, /healthz, JSON snapshots, and pprof.
//
// Every telemetry source — pipeline stage spans, transport session
// counters, netsim link statistics, reconstruction cache counters, and
// rate-adaptation decisions — registers into one
// Registry, so a single scrape shows the whole Figure-1 pipeline:
// capture → extract → encode → network → decode → reconstruct → render.
//
// The registry is deliberately dependency-free (stdlib only) so every
// internal package can import it. Metric values are either pushed
// (atomic stores on the hot path) or pulled (a func sampled at scrape
// time), whichever keeps the instrumented path cheapest.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind string

// Metric kinds, named after their Prometheus exposition types.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. Safe for concurrent use: registration takes a write lock,
// metric updates are lock-free atomics, exporting takes read locks.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Default is the process-wide registry used by components that are not
// handed an explicit one.
var Default = NewRegistry()

// family is one named metric with a fixed label schema and one series
// per distinct label-value tuple.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram upper bounds (no +Inf)

	mu     sync.RWMutex
	series map[string]*series
}

// series is one label-value tuple's data. Exactly one of the value
// representations is active, according to the family kind: counters and
// gauges use bits (float64 bits) or fn (pull-backed), histograms use h.
type series struct {
	labelValues []string
	bits        atomic.Uint64
	fn          func() float64
	h           *histogramData
}

// seriesKey joins label values with a separator that cannot appear in
// escaped label values.
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// register creates or fetches a family. Registration is idempotent:
// asking again with the same name, kind, and label arity returns the
// existing family (so pipelines can be rebuilt without bookkeeping);
// re-registering a name with a different shape panics — that is a
// programming error, not a runtime condition.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labelNames), f.kind, len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     map[string]*series{},
	}
	r.fams[name] = f
	return f
}

// getSeries fetches or creates the series for a label-value tuple.
func (f *family) getSeries(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.h = newHistogramData(f.buckets)
	}
	f.series[key] = s
	return s
}

// --- Counters -------------------------------------------------------

// CounterVec is a labeled family of monotonically increasing counters.
type CounterVec struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, nil, labelNames)}
}

// With returns the counter for a label-value tuple, creating it at zero.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{v.f.getSeries(labelValues)}
}

// Func installs a pull-backed counter series: fn is sampled at scrape
// time. fn must be monotonically non-decreasing and safe for concurrent
// use. Use for sources that already keep their own atomic counts.
func (v *CounterVec) Func(fn func() float64, labelValues ...string) {
	v.f.getSeries(labelValues).fn = fn
}

// Counter is one counter series.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by delta (negative deltas are ignored — counters are
// monotone).
func (c *Counter) Add(delta float64) {
	if delta <= 0 {
		return
	}
	addFloatBits(&c.s.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// --- Gauges ---------------------------------------------------------

// GaugeVec is a labeled family of instantaneous values.
type GaugeVec struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, nil, labelNames)}
}

// With returns the gauge for a label-value tuple.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{v.f.getSeries(labelValues)}
}

// Func installs a pull-backed gauge series sampled at scrape time.
func (v *GaugeVec) Func(fn func() float64, labelValues ...string) {
	v.f.getSeries(labelValues).fn = fn
}

// GaugeFunc registers an unlabeled pull-backed gauge in one call — the
// common case for wiring existing snapshot methods into the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.Gauge(name, help).Func(fn)
}

// Gauge is one gauge series.
type Gauge struct{ s *series }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta float64) { addFloatBits(&g.s.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// addFloatBits atomically adds delta to a float64 stored as bits.
func addFloatBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// --- Export ---------------------------------------------------------

// SeriesSnapshot is one exported series.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value float64 `json:"value"`
	// Histogram fields.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"` // +Inf for the last bucket
	Count      uint64  `json:"count"`
}

// FamilySnapshot is one exported metric family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Kind   Kind             `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns every family, sorted by name with series sorted by
// label values — a deterministic order, so golden tests and diffs work.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{}
			if len(f.labelNames) > 0 {
				ss.Labels = make(map[string]string, len(f.labelNames))
				for i, ln := range f.labelNames {
					ss.Labels[ln] = s.labelValues[i]
				}
			}
			switch f.kind {
			case KindHistogram:
				ss.Buckets, ss.Sum, ss.Count = s.h.snapshot()
			default:
				if s.fn != nil {
					ss.Value = s.fn()
				} else {
					ss.Value = math.Float64frombits(s.bits.Load())
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case KindHistogram:
				writePromHistogram(&sb, f, s)
			default:
				v := math.Float64frombits(s.bits.Load())
				if s.fn != nil {
					v = s.fn()
				}
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, promLabels(f.labelNames, s.labelValues, "", 0), promFloat(v))
			}
		}
		f.mu.RUnlock()
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writePromHistogram renders one histogram series (_bucket/_sum/_count).
func writePromHistogram(sb *strings.Builder, f *family, s *series) {
	buckets, sum, count := s.h.snapshot()
	for _, b := range buckets {
		fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
			promLabels(f.labelNames, s.labelValues, "le", b.UpperBound), b.Count)
	}
	fmt.Fprintf(sb, "%s_sum%s %s\n", f.name, promLabels(f.labelNames, s.labelValues, "", 0), promFloat(sum))
	fmt.Fprintf(sb, "%s_count%s %d\n", f.name, promLabels(f.labelNames, s.labelValues, "", 0), count)
}

// promLabels renders a {k="v",...} block; leName, when non-empty, adds
// the histogram bucket bound label.
func promLabels(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", n, escapeLabel(values[i]))
	}
	if leName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", leName, promFloat(le))
	}
	sb.WriteByte('}')
	return sb.String()
}

// promFloat renders a float the way Prometheus expects (+Inf, integers
// without exponent where possible).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return formatFloat(v)
}

// formatFloat formats compactly: integral values without decimal point.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabel(s string) string {
	// %q already escapes quotes and backslashes; strip newlines too.
	return strings.ReplaceAll(s, "\n", " ")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
