package obs

import (
	"fmt"
	"strings"
	"sync"
)

// TraceStore retains the most recent completed FrameTraces keyed by
// trace ID, so /debug/trace/<id> can reconstruct a frame's waterfall
// after the fact. Bounded FIFO: the oldest trace is evicted when the
// store is full. Safe for concurrent use.
type TraceStore struct {
	mu       sync.Mutex
	capacity int
	byID     map[uint64]FrameTrace
	order    []uint64
}

// DefaultTraceDepth is the capacity of the process-wide store.
const DefaultTraceDepth = 512

// Traces is the process-wide trace store, served at /debug/trace/<id>
// by obs.Handler. Receivers publish completed traces here by default.
var Traces = NewTraceStore(DefaultTraceDepth)

// NewTraceStore builds a store retaining up to capacity traces.
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &TraceStore{capacity: capacity, byID: make(map[uint64]FrameTrace, capacity)}
}

// Put stores a completed trace, taking an owned copy of the hop list.
// Re-putting an existing ID replaces the stored trace in place.
func (s *TraceStore) Put(t FrameTrace) {
	if s == nil {
		return
	}
	t.Hops = append([]Hop(nil), t.Hops...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[t.TraceID]; !ok {
		for len(s.order) >= s.capacity {
			delete(s.byID, s.order[0])
			s.order = s.order[1:]
		}
		s.order = append(s.order, t.TraceID)
	}
	s.byID[t.TraceID] = t
}

// Get returns the stored trace for an ID.
func (s *TraceStore) Get(id uint64) (FrameTrace, bool) {
	if s == nil {
		return FrameTrace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	return t, ok
}

// Latest returns the most recently stored trace.
func (s *TraceStore) Latest() (FrameTrace, bool) {
	if s == nil {
		return FrameTrace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return FrameTrace{}, false
	}
	return s.byID[s.order[len(s.order)-1]], true
}

// IDs returns the stored trace IDs in insertion order.
func (s *TraceStore) IDs() []uint64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.order...)
}

// Reset discards every stored trace. Mainly for tests that seed the
// process-wide store and need a clean slate afterwards.
func (s *TraceStore) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.byID)
	s.order = s.order[:0]
}

// Len returns the number of stored traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// HopSpan is one segment of a frame's waterfall: a half-open interval of
// wall-clock microseconds with a human label. Consecutive spans share
// endpoints, so the span durations telescope — their sum is exactly the
// last endpoint minus the first (the e2e motion-to-photon span when the
// trace ends at the receiver hop).
type HopSpan struct {
	Label      string  `json:"label"`
	Site       byte    `json:"site"`
	FromMicros uint64  `json:"from_micros"`
	ToMicros   uint64  `json:"to_micros"`
	Ms         float64 `json:"ms"`
}

func span(label string, site byte, from, to uint64) HopSpan {
	return HopSpan{
		Label: label, Site: site, FromMicros: from, ToMicros: to,
		Ms: float64(int64(to)-int64(from)) / 1e3,
	}
}

// Waterfall decomposes the trace's capture→decode timeline into
// contiguous spans. With hop records each hop contributes a transit span
// (previous site's send → this site's recv: wire time plus any queueing
// the downstream site didn't stamp) and a dwell span (recv → send at the
// site). Legacy traces (24-byte extension only) fall back to the
// three-way sender/network/decode split. Span durations always sum to
// the trace's end-to-end duration by construction.
func (t FrameTrace) Waterfall() []HopSpan {
	decoded := uint64(t.DecodedAt.UnixMicro())
	if len(t.Hops) == 0 {
		arrived := uint64(t.ArrivedAt.UnixMicro())
		return []HopSpan{
			span("sender", 0, t.CaptureMicros, t.SendMicros),
			span("network", 0, t.SendMicros, arrived),
			span("decode", 0, arrived, decoded),
		}
	}
	out := make([]HopSpan, 0, 2*len(t.Hops))
	prev := t.CaptureMicros
	for i, h := range t.Hops {
		if i > 0 || h.RecvMicros != prev {
			// The relay-egress hop's recv stamp is taken at dequeue, so
			// the interval leading into it is egress-queue wait, not wire.
			transit := "wire→" + h.Kind.String()
			if h.Kind == HopRelayEgress {
				transit = "queue→" + h.Kind.String()
			}
			out = append(out, span(transit, h.Site, prev, h.RecvMicros))
		}
		out = append(out, span(h.Kind.String(), h.Site, h.RecvMicros, h.SendMicros))
		prev = h.SendMicros
	}
	if prev != decoded {
		out = append(out, span("finish", 0, prev, decoded))
	}
	return out
}

// HopSumMs is the telescoped waterfall total in milliseconds — by
// construction equal to the e2e span the histograms observe (up to the
// microsecond quantization of the wire stamps).
func (t FrameTrace) HopSumMs() float64 {
	var sum float64
	for _, s := range t.Waterfall() {
		sum += s.Ms
	}
	return sum
}

// RenderWaterfall renders a fixed-width ASCII timeline of the trace —
// the human-readable half of /debug/trace/<id>.
func RenderWaterfall(t FrameTrace) string {
	spans := t.Waterfall()
	e2e := t.E2E()
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %d  e2e %.3f ms  (%d hops)\n", t.TraceID, e2e.Seconds()*1e3, len(t.Hops))
	if len(spans) == 0 {
		return sb.String()
	}
	t0 := spans[0].FromMicros
	total := float64(int64(spans[len(spans)-1].ToMicros) - int64(t0))
	const width = 48
	for _, s := range spans {
		bar := strings.Repeat(" ", width)
		if total > 0 {
			lo := int(float64(int64(s.FromMicros)-int64(t0)) / total * width)
			hi := int(float64(int64(s.ToMicros)-int64(t0)) / total * width)
			if lo < 0 {
				lo = 0
			}
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			bar = strings.Repeat(" ", lo) + strings.Repeat("█", hi-lo) + strings.Repeat(" ", width-hi)
		}
		fmt.Fprintf(&sb, "  %-20s |%s| %8.3f ms\n", fmt.Sprintf("%s/%d", s.Label, s.Site), bar, s.Ms)
	}
	fmt.Fprintf(&sb, "  %-20s  %s  %8.3f ms\n", "hop-sum", strings.Repeat(" ", width), t.HopSumMs())
	return sb.String()
}

// TraceDump is the /debug/trace/<id> document: the raw trace record,
// its waterfall decomposition, the flight-recorder events attributable
// to the frame, and the rendered timeline.
type TraceDump struct {
	TraceID       uint64            `json:"trace_id"`
	CaptureMicros uint64            `json:"capture_micros"`
	SendMicros    uint64            `json:"send_micros"`
	ArrivedMicros uint64            `json:"arrived_micros"`
	DecodedMicros uint64            `json:"decoded_micros"`
	E2EMs         float64           `json:"e2e_ms"`
	HopSumMs      float64           `json:"hop_sum_ms"`
	Hops          []hopJSON         `json:"hops"`
	Spans         []HopSpan         `json:"spans"`
	Flight        []flightEventJSON `json:"flight"`
	Waterfall     string            `json:"waterfall"`
}

// DumpTrace assembles the full debug document for one stored trace,
// joining the trace record with the flight recorder's events for it.
func DumpTrace(t FrameTrace, fr *FlightRecorder) TraceDump {
	hops := make([]hopJSON, len(t.Hops))
	for i, h := range t.Hops {
		hops[i] = h.toJSON()
	}
	d := TraceDump{
		TraceID:       t.TraceID,
		CaptureMicros: t.CaptureMicros,
		SendMicros:    t.SendMicros,
		ArrivedMicros: uint64(t.ArrivedAt.UnixMicro()),
		DecodedMicros: uint64(t.DecodedAt.UnixMicro()),
		E2EMs:         t.E2E().Seconds() * 1e3,
		HopSumMs:      t.HopSumMs(),
		Hops:          hops,
		Spans:         t.Waterfall(),
		Waterfall:     RenderWaterfall(t),
	}
	if fr != nil {
		d.Flight = flightEventsJSON(fr.EventsFor(t.TraceID))
	}
	return d
}
