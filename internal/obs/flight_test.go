package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecordAndEvents(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record(EvFrameCaptured, "sender", 0, 7, 0)
	fr.Record(EvFrameSent, "sender", 42, 1024, 0)
	fr.Record(EvFrameArrived, "receiver", 42, 1024, 0)

	evs := fr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if evs[0].Kind != EvFrameCaptured || evs[0].Site != "sender" || evs[0].A != 7 {
		t.Errorf("first event %+v", evs[0])
	}
	if evs[1].TraceID != 42 || evs[2].TraceID != 42 {
		t.Errorf("trace IDs %d %d, want 42 42", evs[1].TraceID, evs[2].TraceID)
	}
	if evs[0].Micros == 0 {
		t.Error("event missing timestamp")
	}
}

func TestFlightRingWrapKeepsNewest(t *testing.T) {
	fr := NewFlightRecorder(64) // exact power of two: ring depth 64
	const total = 200
	for i := 1; i <= total; i++ {
		fr.Record(EvFrameSent, "s", uint64(i), int64(i), 0)
	}
	evs := fr.Events()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d events, want 64", len(evs))
	}
	// The survivors are exactly the newest 64, in sequence order.
	for i, ev := range evs {
		want := uint64(total - 64 + 1 + i)
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
		if ev.TraceID != want || ev.A != int64(want) {
			t.Errorf("event %d payload (trace %d, a %d) doesn't match seq %d",
				i, ev.TraceID, ev.A, want)
		}
	}
}

func TestFlightDepthRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {4096, 4096}, {5000, 8192},
	} {
		fr := NewFlightRecorder(tc.ask)
		if len(fr.slots) != tc.want {
			t.Errorf("depth %d rounded to %d, want %d", tc.ask, len(fr.slots), tc.want)
		}
	}
}

func TestFlightNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(EvError, "x", 0, 0, 0) // must not panic
	fr.Snapshot("nil")               // must not panic
}

func TestFlightSnapshotFreezes(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record(EvStall, "send", 9, 1500, 0)
	if fr.LastSnapshot() != nil {
		t.Fatal("snapshot before any Snapshot call")
	}
	fr.Snapshot("send stall")
	snap := fr.LastSnapshot()
	if snap == nil || snap.Reason != "send stall" || len(snap.Events) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	// Later records leave the frozen snapshot untouched.
	fr.Record(EvError, "send", 9, 0, 0)
	if got := len(fr.LastSnapshot().Events); got != 1 {
		t.Errorf("snapshot grew to %d events after later Record", got)
	}
	fr.Reset()
	if fr.LastSnapshot() != nil || len(fr.Events()) != 0 {
		t.Error("Reset did not clear ring and snapshot")
	}
}

func TestFlightEventsFor(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record(EvFrameSent, "s", 1, 0, 0)
	fr.Record(EvFrameSent, "s", 2, 0, 0)
	fr.Record(EvFrameArrived, "r", 1, 0, 0)
	fr.Record(EvQueueDrop, "r", 0, 0, 0)
	evs := fr.EventsFor(1)
	if len(evs) != 2 || evs[0].Kind != EvFrameSent || evs[1].Kind != EvFrameArrived {
		t.Errorf("EventsFor(1) = %+v", evs)
	}
	if got := len(fr.EventsFor(99)); got != 0 {
		t.Errorf("EventsFor(99) returned %d events", got)
	}
}

// TestFlightConcurrentHammer drives writers hard while readers dump the
// ring; under -race this proves the seqlock protocol, and the assertions
// prove no reader ever sees a torn slot (a payload inconsistent with its
// sequence number) or an out-of-order dump.
func TestFlightConcurrentHammer(t *testing.T) {
	fr := NewFlightRecorder(256)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: every observed dump must be strictly seq-ordered
	// and internally consistent (A mirrors TraceID at every write site).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := fr.Events()
				for i, ev := range evs {
					if i > 0 && evs[i-1].Seq >= ev.Seq {
						t.Errorf("dump not strictly seq-ordered at %d", i)
						return
					}
					if ev.A != int64(ev.TraceID) {
						t.Errorf("torn slot: seq %d has a=%d trace=%d", ev.Seq, ev.A, ev.TraceID)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(g*perWriter + i + 1)
				fr.Record(EvFrameSent, "hammer", id, int64(id), 0)
			}
		}(g)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	evs := fr.Events()
	if len(evs) == 0 || len(evs) > 256 {
		t.Fatalf("final dump has %d events", len(evs))
	}
	// All writers done: the final dump should be dense — the newest ring's
	// worth of sequence numbers with nothing torn.
	for i, ev := range evs {
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatalf("final dump out of order at %d", i)
		}
		if ev.A != int64(ev.TraceID) {
			t.Fatalf("final dump torn slot %+v", ev)
		}
	}
}

func TestFlightDumpShape(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record(EvTierSwitch, "rate", 0, 2, 1)
	fr.Snapshot("test")
	raw, err := json.Marshal(fr.Dump())
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Depth    int    `json:"depth"`
		Recorded uint64 `json:"recorded"`
		Events   []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
			A    int64  `json:"a"`
			B    int64  `json:"b"`
		} `json:"events"`
		Snapshot *struct {
			Reason string `json:"reason"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Depth != 64 || d.Recorded != 1 || len(d.Events) != 1 {
		t.Fatalf("dump %+v", d)
	}
	if d.Events[0].Kind != "tier-switch" || d.Events[0].A != 2 || d.Events[0].B != 1 {
		t.Errorf("event %+v", d.Events[0])
	}
	if d.Snapshot == nil || d.Snapshot.Reason != "test" {
		t.Errorf("snapshot %+v", d.Snapshot)
	}
}

func TestFlightKindStrings(t *testing.T) {
	kinds := []FlightKind{
		EvFrameCaptured, EvFrameSent, EvFrameArrived, EvFrameDecoded,
		EvFrameRendered, EvRelayIngress, EvRelayEgress, EvQueueDrop,
		EvPoolWait, EvCacheHit, EvCacheMiss, EvStall, EvTierSwitch, EvError,
		EvHopDropped,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "invalid") || seen[s] {
			t.Errorf("kind %d string %q invalid or duplicated", k, s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(EvInvalid.String(), "invalid") {
		t.Errorf("zero kind string %q", EvInvalid.String())
	}
}

func TestTraceStoreBoundedFIFO(t *testing.T) {
	s := NewTraceStore(4)
	for id := uint64(1); id <= 6; id++ {
		s.Put(FrameTrace{TraceID: id, CaptureMicros: id * 100})
	}
	if s.Len() != 4 {
		t.Fatalf("len %d, want 4", s.Len())
	}
	if _, ok := s.Get(1); ok {
		t.Error("oldest trace 1 not evicted")
	}
	if _, ok := s.Get(2); ok {
		t.Error("trace 2 not evicted")
	}
	if got := s.IDs(); len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Errorf("IDs %v, want [3 4 5 6]", got)
	}
	latest, ok := s.Latest()
	if !ok || latest.TraceID != 6 {
		t.Errorf("latest %+v", latest)
	}
	// Replacing an existing ID updates in place without consuming a slot.
	s.Put(FrameTrace{TraceID: 4, CaptureMicros: 9999})
	if s.Len() != 4 {
		t.Errorf("replace grew store to %d", s.Len())
	}
	if tr, _ := s.Get(4); tr.CaptureMicros != 9999 {
		t.Errorf("replace did not update: %+v", tr)
	}
	if got := s.IDs(); got[len(got)-1] != 6 {
		t.Errorf("replace disturbed order: %v", got)
	}
}

func TestTraceStorePutCopiesHops(t *testing.T) {
	s := NewTraceStore(4)
	hops := []Hop{{Kind: HopSender, RecvMicros: 1, SendMicros: 2}}
	s.Put(FrameTrace{TraceID: 1, Hops: hops})
	hops[0].SendMicros = 999 // caller mutates its slice after Put
	got, _ := s.Get(1)
	if got.Hops[0].SendMicros != 2 {
		t.Errorf("stored hop aliases caller slice: %+v", got.Hops[0])
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var s *TraceStore
	s.Put(FrameTrace{TraceID: 1})
	if _, ok := s.Get(1); ok {
		t.Error("nil store returned a trace")
	}
	if _, ok := s.Latest(); ok || s.Len() != 0 || s.IDs() != nil {
		t.Error("nil store not empty")
	}
}

// hoppedTrace builds a 4-hop sender→relay→receiver trace with known
// stamps: capture at t0, receiver decode at t0+20ms.
func hoppedTrace(t0 uint64) FrameTrace {
	return FrameTrace{
		TraceID:       77,
		CaptureMicros: t0,
		SendMicros:    t0 + 3000,
		ArrivedAt:     time.UnixMicro(int64(t0 + 12000)),
		DecodedAt:     time.UnixMicro(int64(t0 + 20000)),
		Hops: []Hop{
			{Kind: HopSender, Site: 1, RecvMicros: t0, SendMicros: t0 + 3000},
			{Kind: HopRelayIngress, Site: 2, RecvMicros: t0 + 5000, SendMicros: t0 + 6000},
			{Kind: HopRelayEgress, Site: 2, RecvMicros: t0 + 7000, SendMicros: t0 + 8000},
			{Kind: HopReceiver, Site: 3, RecvMicros: t0 + 12000, SendMicros: t0 + 20000},
		},
	}
}

// TestWaterfallTelescopes is the acceptance invariant: the hop spans are
// contiguous, so their durations sum exactly to the end-to-end latency
// the histograms observe.
func TestWaterfallTelescopes(t *testing.T) {
	const t0 = 1_700_000_000_000_000
	tr := hoppedTrace(t0)
	spans := tr.Waterfall()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	// Contiguity: each span starts where the previous ended.
	for i := 1; i < len(spans); i++ {
		if spans[i].FromMicros != spans[i-1].ToMicros {
			t.Fatalf("span %d (%s) starts at %d, previous ended at %d",
				i, spans[i].Label, spans[i].FromMicros, spans[i-1].ToMicros)
		}
	}
	if spans[0].FromMicros != t0 {
		t.Errorf("first span starts at %d, want capture %d", spans[0].FromMicros, t0)
	}
	if last := spans[len(spans)-1]; last.ToMicros != t0+20000 {
		t.Errorf("last span ends at %d, want decode %d", last.ToMicros, t0+20000)
	}
	wantE2E := tr.E2E().Seconds() * 1e3
	if got := tr.HopSumMs(); got != wantE2E {
		t.Errorf("hop-sum %.6f ms != e2e %.6f ms", got, wantE2E)
	}
	// The relay-egress transit is queue wait, not wire.
	var sawQueue bool
	for _, s := range spans {
		if s.Label == "queue→relay-egress" {
			sawQueue = true
			if s.Ms != 1.0 { // 7000-6000 µs
				t.Errorf("egress queue span %.3f ms, want 1.0", s.Ms)
			}
		}
		if s.Label == "wire→relay-egress" {
			t.Error("relay-egress transit mislabeled as wire")
		}
	}
	if !sawQueue {
		t.Error("no queue→relay-egress span")
	}
}

func TestWaterfallLegacyThreeWaySplit(t *testing.T) {
	const t0 = 1_700_000_000_000_000
	tr := FrameTrace{
		TraceID:       5,
		CaptureMicros: t0,
		SendMicros:    t0 + 4000,
		ArrivedAt:     time.UnixMicro(int64(t0 + 10000)),
		DecodedAt:     time.UnixMicro(int64(t0 + 15000)),
	}
	spans := tr.Waterfall()
	if len(spans) != 3 {
		t.Fatalf("legacy trace got %d spans, want 3", len(spans))
	}
	want := []struct {
		label string
		ms    float64
	}{{"sender", 4.0}, {"network", 6.0}, {"decode", 5.0}}
	for i, w := range want {
		if spans[i].Label != w.label || spans[i].Ms != w.ms {
			t.Errorf("span %d = %s/%.3f ms, want %s/%.3f ms",
				i, spans[i].Label, spans[i].Ms, w.label, w.ms)
		}
	}
	if got := tr.HopSumMs(); got != 15.0 {
		t.Errorf("hop-sum %.3f ms, want 15.0", got)
	}
}

func TestRenderWaterfall(t *testing.T) {
	tr := hoppedTrace(1_700_000_000_000_000)
	out := RenderWaterfall(tr)
	for _, want := range []string{"trace 77", "sender/1", "relay-ingress/2",
		"relay-egress/2", "receiver/3", "hop-sum", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered waterfall missing %q:\n%s", want, out)
		}
	}
}

func TestDumpTraceJoinsFlight(t *testing.T) {
	fr := NewFlightRecorder(64)
	tr := hoppedTrace(1_700_000_000_000_000)
	fr.Record(EvFrameArrived, "recv", tr.TraceID, 512, 0)
	fr.Record(EvFrameDecoded, "recv", tr.TraceID, 800, 0)
	fr.Record(EvFrameArrived, "recv", 12345, 99, 0) // other frame — filtered out
	d := DumpTrace(tr, fr)
	if d.TraceID != tr.TraceID || len(d.Hops) != 4 || len(d.Spans) == 0 {
		t.Fatalf("dump %+v", d)
	}
	if d.HopSumMs != d.E2EMs {
		t.Errorf("dump hop-sum %.6f != e2e %.6f", d.HopSumMs, d.E2EMs)
	}
	if len(d.Flight) != 2 {
		t.Errorf("dump joined %d flight events, want 2", len(d.Flight))
	}
	if d.Waterfall == "" {
		t.Error("dump missing rendered waterfall")
	}
	// Nil recorder is fine (no flight join).
	if d2 := DumpTrace(tr, nil); len(d2.Flight) != 0 {
		t.Errorf("nil recorder joined %d events", len(d2.Flight))
	}
}

func TestExemplarTracksWorstObservation(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ex_test_seconds", "t", nil).With()
	h.ObserveExemplar(0.010, 1)
	h.ObserveExemplar(0.080, 2)
	h.ObserveExemplar(0.030, 3)
	v, id := h.Exemplar()
	if v != 0.080 || id != 2 {
		t.Fatalf("exemplar (%.3f, %d), want (0.080, 2)", v, id)
	}
	if h.Count() != 3 {
		t.Errorf("exemplar observations not counted: %d", h.Count())
	}
}

func TestExemplarWindowRestart(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ex_window_seconds", "t", nil).With()
	// One early outlier, then a full window of small observations: the
	// restart must let the small ones reclaim the exemplar slot.
	h.ObserveExemplar(9.0, 111)
	for i := 0; i < exemplarWindow; i++ {
		h.ObserveExemplar(0.001, 222)
	}
	v, id := h.Exemplar()
	if v == 9.0 || id == 111 {
		t.Errorf("early outlier still pinned after window restart: (%.3f, %d)", v, id)
	}
}

// TestExemplarPairConsistency: the exemplar value and its trace ID are
// published as one immutable pair, so a reader racing many writers must
// never observe a value paired with another observation's ID. Each
// writer uses a value derivable from its ID; every read checks the
// invariant.
func TestExemplarPairConsistency(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ex_pair_seconds", "t", nil).With()
	check := func(where string) {
		v, id := h.Exemplar()
		if id == 0 && v == 0 {
			return // before the first observation
		}
		if want := float64(id) / 1e6; v != want {
			t.Errorf("%s: exemplar (%.6f, %d) mismatched — value for that ID is %.6f",
				where, v, id, want)
		}
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				check("concurrent read")
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 1; i <= 2000; i++ {
				id := uint64(g*10_000 + i)
				h.ObserveExemplar(float64(id)/1e6, id)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	<-readerDone
	check("final read")
}

func TestPipelineE2EExemplar(t *testing.T) {
	reg := NewRegistry()
	pm := NewPipelineMetrics(reg)
	const t0 = 1_700_000_000_000_000
	pm.ObserveTrace(FrameTrace{
		TraceID: 31, CaptureMicros: t0, SendMicros: t0 + 1000,
		ArrivedAt: time.UnixMicro(t0 + 2000), DecodedAt: time.UnixMicro(t0 + 9000),
	})
	pm.ObserveTrace(FrameTrace{
		TraceID: 32, CaptureMicros: t0, SendMicros: t0 + 1000,
		ArrivedAt: time.UnixMicro(t0 + 2000), DecodedAt: time.UnixMicro(t0 + 50000),
	})
	sec, id := pm.E2EExemplar()
	if id != 32 {
		t.Fatalf("exemplar trace %d, want 32 (the slower frame)", id)
	}
	if sec != 0.050 {
		t.Errorf("exemplar %.6f s, want 0.050", sec)
	}
	// The exemplar gauges are exported.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "semholo_e2e_exemplar_trace_id") {
		t.Error("exemplar trace-id gauge not exported")
	}
}

func TestHandlerFlightAndTraceEndpoints(t *testing.T) {
	// The handler serves the process-global Flight and Traces; seed them
	// and restore afterwards so other tests see a clean slate.
	defer Flight.Reset()
	defer Traces.Reset()
	Flight.Reset()
	Traces.Reset()
	tr := hoppedTrace(1_700_000_000_000_000)
	Flight.Record(EvFrameDecoded, "recv", tr.TraceID, 800, 0)
	Traces.Put(tr)

	h := Handler(NewRegistry(), nil)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get("/debug/flight"); code != http.StatusOK ||
		!strings.Contains(body, "frame-decoded") {
		t.Errorf("/debug/flight code %d body %q", code, body)
	}
	if code, body := get("/debug/trace/77"); code != http.StatusOK ||
		!strings.Contains(body, "hop_sum_ms") || !strings.Contains(body, "receiver") {
		t.Errorf("/debug/trace/77 code %d body %q", code, body)
	}
	if code, body := get("/debug/trace/latest"); code != http.StatusOK ||
		!strings.Contains(body, `"trace_id": 77`) {
		t.Errorf("/debug/trace/latest code %d body %q", code, body)
	}
	if code, _ := get("/debug/trace/404404"); code != http.StatusNotFound {
		t.Errorf("missing trace returned %d, want 404", code)
	}
	code, body := get("/debug/buildinfo")
	if code != http.StatusOK {
		t.Fatalf("/debug/buildinfo code %d", code)
	}
	var bi BuildInfoReport
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatal(err)
	}
	if bi.GoVersion == "" || bi.GOMAXPROCS == 0 {
		t.Errorf("buildinfo %+v", bi)
	}
}
