// Always-on flight recorder: a fixed-size, lock-free, per-process ring
// of structured events (frame lifecycle, queue drops, pool waits, cache
// hits/misses, stalls, rate-tier switches, errors). Recording an event
// costs one atomic add plus a handful of atomic stores into a
// pre-allocated slot — cheap enough to leave enabled in production — and
// the ring is dumpable at any time via /debug/flight (JSON, ordered by
// event sequence). On a pipeline error or stall the current ring is
// frozen into a snapshot, so "why was frame N late" is answerable after
// the fact without reproducing the run.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// FlightKind classifies a flight-recorder event.
type FlightKind uint8

// Flight event kinds. Zero is reserved so an unwritten slot can never
// masquerade as a real event.
const (
	EvInvalid FlightKind = iota
	// Frame lifecycle. A = payload/extra bytes or stage micros as noted.
	EvFrameCaptured // sender captured a media frame
	EvFrameSent     // sender wrote the last wire frame; A = wire bytes
	EvFrameArrived  // receiver read the last wire frame; A = wire bytes
	EvFrameDecoded  // receiver finished decode; A = decode micros
	EvFrameRendered // receiver rendered; A = render micros
	// Relay path.
	EvRelayIngress // relay accepted an ingress frame; A = payload bytes
	EvRelayEgress  // relay egress leg wrote a frame; A = queue-dwell micros
	// Resource pressure.
	EvQueueDrop // bounded queue evicted a frame; A = queue depth
	EvPoolWait  // worker-pool admission wait; A = wait micros, B = workers granted
	EvCacheHit  // mesh-cache hit
	EvCacheMiss // mesh-cache miss
	EvStall     // a stage observed a stall; A = stall micros
	// Control decisions.
	EvTierSwitch // rate controller changed level; A = old index, B = new index
	EvError      // pipeline error; A/B unused
	// Trace degradation.
	EvHopDropped // hop path full, a hop record was dropped; A = hop kind, B = carried hops
)

func (k FlightKind) String() string {
	switch k {
	case EvFrameCaptured:
		return "frame-captured"
	case EvFrameSent:
		return "frame-sent"
	case EvFrameArrived:
		return "frame-arrived"
	case EvFrameDecoded:
		return "frame-decoded"
	case EvFrameRendered:
		return "frame-rendered"
	case EvRelayIngress:
		return "relay-ingress"
	case EvRelayEgress:
		return "relay-egress"
	case EvQueueDrop:
		return "queue-drop"
	case EvPoolWait:
		return "pool-wait"
	case EvCacheHit:
		return "cache-hit"
	case EvCacheMiss:
		return "cache-miss"
	case EvStall:
		return "stall"
	case EvTierSwitch:
		return "tier-switch"
	case EvError:
		return "error"
	case EvHopDropped:
		return "hop-dropped"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// FlightEvent is one recorded event. A and B are kind-specific integer
// arguments (see the kind constants); TraceID is zero for events not
// attributable to a single frame.
type FlightEvent struct {
	Seq     uint64
	Micros  uint64
	Kind    FlightKind
	Site    string
	TraceID uint64
	A, B    int64
}

// flightSlot is one ring entry. marker doubles as a per-slot seqlock:
// the writer zeroes it, fills the fields, then publishes the event
// sequence number; readers discard a slot whose marker is zero, changed
// mid-read, or doesn't map back to the slot's index (a lapped writer).
// The fields are individually atomic so concurrent dump-during-record is
// well-defined (and race-detector-clean); the marker protocol is what
// makes a dumped slot consistent as a whole.
type flightSlot struct {
	marker  atomic.Uint64
	kind    atomic.Uint32
	site    atomic.Pointer[string]
	traceID atomic.Uint64
	micros  atomic.Uint64
	a, b    atomic.Int64
}

// siteIntern deduplicates site label strings so Record's hot path stores
// a pointer to a long-lived string instead of allocating. Call sites use
// a small fixed label set, so the map stays tiny.
var siteIntern sync.Map // string -> *string

func internSite(site string) *string {
	if p, ok := siteIntern.Load(site); ok {
		return p.(*string)
	}
	return internSiteSlow(site)
}

func internSiteSlow(site string) *string {
	p, _ := siteIntern.LoadOrStore(site, &site)
	return p.(*string)
}

// FlightRecorder is the fixed-size lock-free event ring. The zero value
// is unusable; call NewFlightRecorder. All methods are safe for
// concurrent use. Recording when the ring wraps overwrites the oldest
// events — by design: a flight recorder keeps the recent past.
//
// Two writers racing a full ring apart (one lapping the other inside a
// single Record call) can interleave their field stores; the marker
// check makes readers drop such slots rather than emit a torn event, so
// dumps are best-effort complete but never garbled beyond one missing
// entry.
type FlightRecorder struct {
	slots []flightSlot
	mask  uint64
	next  atomic.Uint64
	snap  atomic.Pointer[FlightSnapshot]
}

// DefaultFlightDepth is the default ring size (a power of two).
const DefaultFlightDepth = 4096

// Flight is the process-wide always-on recorder, served at
// /debug/flight by obs.Handler.
var Flight = NewFlightRecorder(DefaultFlightDepth)

// NewFlightRecorder builds a recorder with the given ring depth, rounded
// up to a power of two (minimum 64).
func NewFlightRecorder(depth int) *FlightRecorder {
	n := 64
	for n < depth {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]flightSlot, n), mask: uint64(n - 1)}
}

// Record appends one event. Nil-safe, so call sites stay unconditional.
func (r *FlightRecorder) Record(kind FlightKind, site string, traceID uint64, a, b int64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.marker.Store(0)
	s.kind.Store(uint32(kind))
	s.site.Store(internSite(site))
	s.traceID.Store(traceID)
	s.a.Store(a)
	s.b.Store(b)
	s.micros.Store(NowMicros())
	s.marker.Store(seq)
}

// Reset clears the ring and the last snapshot. Test helper: not
// synchronized against concurrent Record.
func (r *FlightRecorder) Reset() {
	for i := range r.slots {
		r.slots[i].marker.Store(0)
	}
	r.next.Store(0)
	r.snap.Store(nil)
}

// Events returns the live ring contents ordered by event sequence
// (oldest first) — a deterministic order for any fixed set of surviving
// events. Torn or lapped slots are skipped.
func (r *FlightRecorder) Events() []FlightEvent {
	out := make([]FlightEvent, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		m := s.marker.Load()
		if m == 0 || (m-1)&r.mask != uint64(i) {
			continue
		}
		var site string
		if p := s.site.Load(); p != nil {
			site = *p
		}
		ev := FlightEvent{
			Seq: m, Micros: s.micros.Load(), Kind: FlightKind(s.kind.Load()),
			Site: site, TraceID: s.traceID.Load(), A: s.a.Load(), B: s.b.Load(),
		}
		if s.marker.Load() != m {
			continue // writer raced us; drop the torn read
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EventsFor filters the live ring down to one trace ID, ordered by
// sequence.
func (r *FlightRecorder) EventsFor(traceID uint64) []FlightEvent {
	all := r.Events()
	out := all[:0]
	for _, ev := range all {
		if ev.TraceID == traceID {
			out = append(out, ev)
		}
	}
	return out
}

// FlightSnapshot is a frozen copy of the ring taken at a point of
// interest (pipeline error, stall). Only the most recent snapshot is
// retained.
type FlightSnapshot struct {
	Reason string        `json:"reason"`
	Micros uint64        `json:"t_micros"`
	Events []FlightEvent `json:"-"`
}

// Snapshot freezes the current ring contents under the given reason.
// Called automatically by the pipeline on error/stall; callers may also
// snapshot manually. Nil-safe.
func (r *FlightRecorder) Snapshot(reason string) {
	if r == nil {
		return
	}
	r.snap.Store(&FlightSnapshot{Reason: reason, Micros: NowMicros(), Events: r.Events()})
}

// LastSnapshot returns the most recent frozen snapshot, or nil.
func (r *FlightRecorder) LastSnapshot() *FlightSnapshot { return r.snap.Load() }

// flightEventJSON is the human-readable dump shape.
type flightEventJSON struct {
	Seq     uint64 `json:"seq"`
	Micros  uint64 `json:"t_micros"`
	Kind    string `json:"kind"`
	Site    string `json:"site,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
	A       int64  `json:"a,omitempty"`
	B       int64  `json:"b,omitempty"`
}

func flightEventsJSON(evs []FlightEvent) []flightEventJSON {
	out := make([]flightEventJSON, len(evs))
	for i, ev := range evs {
		out[i] = flightEventJSON{
			Seq: ev.Seq, Micros: ev.Micros, Kind: ev.Kind.String(),
			Site: ev.Site, TraceID: ev.TraceID, A: ev.A, B: ev.B,
		}
	}
	return out
}

// flightDump is the /debug/flight document.
type flightDump struct {
	Depth    int               `json:"depth"`
	Recorded uint64            `json:"recorded"`
	Events   []flightEventJSON `json:"events"`
	Snapshot *flightSnapJSON   `json:"snapshot,omitempty"`
}

type flightSnapJSON struct {
	Reason string            `json:"reason"`
	Micros uint64            `json:"t_micros"`
	Events []flightEventJSON `json:"events"`
}

// Dump returns the JSON-marshalable /debug/flight document: ring depth,
// total events ever recorded, the live events in sequence order, and the
// last error/stall snapshot if one was taken.
func (r *FlightRecorder) Dump() any {
	d := flightDump{
		Depth:    len(r.slots),
		Recorded: r.next.Load(),
		Events:   flightEventsJSON(r.Events()),
	}
	if snap := r.LastSnapshot(); snap != nil {
		d.Snapshot = &flightSnapJSON{
			Reason: snap.Reason, Micros: snap.Micros,
			Events: flightEventsJSON(snap.Events),
		}
	}
	return d
}
