package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

// TestGoldenTierWireBytes pins the tier extension's serialization
// against hex literals derived independently from the documented
// layout, alongside TestGoldenWireBytes' legacy pins: the 2-byte tier
// block sits between the hop extension and the payload, covered by the
// frame CRC, and FlagTierSwitch costs no bytes beyond its flag bit.
func TestGoldenTierWireBytes(t *testing.T) {
	cases := []struct {
		name   string
		frame  Frame
		golden string
	}{
		{
			name: "tiered",
			frame: Frame{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame | FlagTier,
				Seq: 7, Timestamp: 0x0102030405060708, Tier: 1, TierCount: 3, Payload: []byte("semholo")},
			golden: "534801030001002500000007010203040506070800000007010373656d686f6c6f178b5fec",
		},
		{
			name: "tier-switch",
			frame: Frame{Type: TypeSemantic, Channel: 1, Flags: FlagKeyframe | FlagEndOfFrame | FlagTier | FlagTierSwitch,
				Seq: 7, Timestamp: 0x0102030405060708, Tier: 1, TierCount: 3, Payload: []byte("semholo")},
			golden: "534801030001006500000007010203040506070800000007010373656d686f6c6fd35138cf",
		},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteFrame(&tc.frame); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s wire bytes drifted:\n got %x\nwant %x", tc.name, buf.Bytes(), want)
		}
		got, err := NewFrameReader(bytes.NewReader(want)).ReadFrame()
		if err != nil {
			t.Fatalf("%s: read back: %v", tc.name, err)
		}
		if got.Tier != tc.frame.Tier || got.TierCount != tc.frame.TierCount || got.Flags != tc.frame.Flags {
			t.Errorf("%s: decoded tier %d/%d flags %#x, want %d/%d flags %#x",
				tc.name, got.Tier, got.TierCount, got.Flags, tc.frame.Tier, tc.frame.TierCount, tc.frame.Flags)
		}
	}
}

// TestTierExtValidation covers the illegal tier combinations on both
// paths: FlagTierSwitch without FlagTier, tier count out of range, and
// tier index outside the ladder — plus CRC coverage of the tier bytes.
func TestTierExtValidation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)

	bad := Frame{Type: TypeSemantic, Flags: FlagTierSwitch, Payload: []byte("x")}
	if err := fw.WriteFrame(&bad); !errors.Is(err, ErrBadHeader) {
		t.Errorf("FlagTierSwitch without FlagTier: write err = %v, want ErrBadHeader", err)
	}
	zero := Frame{Type: TypeSemantic, Flags: FlagTier, Payload: []byte("x")}
	if err := fw.WriteFrame(&zero); !errors.Is(err, ErrBadHeader) {
		t.Errorf("tier count 0: write err = %v, want ErrBadHeader", err)
	}
	over := Frame{Type: TypeSemantic, Flags: FlagTier, Tier: 0, TierCount: MaxTiers + 1, Payload: []byte("x")}
	if err := fw.WriteFrame(&over); !errors.Is(err, ErrBadHeader) {
		t.Errorf("tier count > MaxTiers: write err = %v, want ErrBadHeader", err)
	}
	outside := Frame{Type: TypeSemantic, Flags: FlagTier, Tier: 3, TierCount: 3, Payload: []byte("x")}
	if err := fw.WriteFrame(&outside); !errors.Is(err, ErrBadHeader) {
		t.Errorf("tier >= count: write err = %v, want ErrBadHeader", err)
	}

	buf.Reset()
	ok := Frame{Type: TypeSemantic, Flags: FlagTier, Tier: 1, TierCount: 2, Payload: []byte("x")}
	if err := fw.WriteFrame(&ok); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Corrupting either tier byte within legal range must fail the CRC.
	for off := 0; off < tierExtLen; off++ {
		raw := append([]byte(nil), pristine...)
		raw[headerLen+off] ^= 0x01 // 1->0 / 2->3: still in-range values
		if _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); !errors.Is(err, ErrBadCRC) {
			t.Errorf("tier byte %d corrupted: err = %v, want ErrBadCRC", off, err)
		}
	}

	// Reader side: clear FlagTier in the header so the switch bit dangles.
	raw := append([]byte(nil), pristine...)
	raw[7] |= byte(FlagTierSwitch)
	raw[7] &^= byte(FlagTier)
	if _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); !errors.Is(err, ErrBadHeader) {
		t.Errorf("reader FlagTierSwitch-without-FlagTier err = %v, want ErrBadHeader", err)
	}
}

// TestSharedFrameTierByteIdentity verifies the serialize-once path
// emits tiered frames byte-identical to FrameWriter.WriteFrame, and
// that the per-leg switch marker changes exactly the flag bit and the
// CRC — never the payload or extensions.
func TestSharedFrameTierByteIdentity(t *testing.T) {
	f := Frame{Type: TypeSemantic, Channel: 9, Flags: FlagKeyframe | FlagCompressed | FlagTier,
		Seq: 3, Timestamp: 777777, Tier: 2, TierCount: 3, Payload: []byte("tiered payload bytes")}
	var direct bytes.Buffer
	if err := NewFrameWriter(&direct).WriteFrame(&f); err != nil {
		t.Fatal(err)
	}

	sf, err := SharedFromFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	var shared bytes.Buffer
	if err := NewFrameWriter(&shared).WriteSharedFrameLeg(sf, f.Seq, f.Timestamp, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), shared.Bytes()) {
		t.Errorf("shared tiered emission drifted:\n got %x\nwant %x", shared.Bytes(), direct.Bytes())
	}
	if got, want := sf.WireLen(), direct.Len(); got != want {
		t.Errorf("WireLen = %d, want %d", got, want)
	}

	// Per-leg switch marker: same bytes except flags and CRC.
	var leg bytes.Buffer
	if err := NewFrameWriter(&leg).WriteSharedFrameLeg(sf, f.Seq, f.Timestamp, 0, nil, FlagTierSwitch); err != nil {
		t.Fatal(err)
	}
	got, err := NewFrameReader(bytes.NewReader(leg.Bytes())).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != f.Flags|FlagTierSwitch {
		t.Errorf("leg flags = %#x, want %#x", got.Flags, f.Flags|FlagTierSwitch)
	}
	if got.Tier != f.Tier || got.TierCount != f.TierCount || !bytes.Equal(got.Payload, f.Payload) {
		t.Error("per-leg switch emission perturbed tier fields or payload")
	}

	// orFlags that would gate extension bytes are rejected.
	if err := NewFrameWriter(&bytes.Buffer{}).WriteSharedFrameLeg(sf, 0, 0, 0, nil, FlagTrace); !errors.Is(err, ErrBadHeader) {
		t.Errorf("extension-gating orFlags: err = %v, want ErrBadHeader", err)
	}
	// A switch marker on an untiered frame is a caller bug, not a frame.
	plain, err := NewSharedFrame(TypeSemantic, 1, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewFrameWriter(&bytes.Buffer{}).WriteSharedFrameLeg(plain, 0, 0, 0, nil, FlagTierSwitch); !errors.Is(err, ErrBadHeader) {
		t.Errorf("switch marker on untiered frame: err = %v, want ErrBadHeader", err)
	}
	// ... whether the marker arrives per leg or on the frame itself.
	plain.Flags |= FlagTierSwitch
	if err := NewFrameWriter(&bytes.Buffer{}).WriteSharedFrameLeg(plain, 0, 0, 0, nil, 0); !errors.Is(err, ErrBadHeader) {
		t.Errorf("untiered frame carrying the switch marker: err = %v, want ErrBadHeader", err)
	}
	if err := NewFrameWriter(&bytes.Buffer{}).bufferSharedFrameLeg(plain, 0, 0, 0, nil, 0); !errors.Is(err, ErrBadHeader) {
		t.Errorf("untiered frame carrying the switch marker, buffered: err = %v, want ErrBadHeader", err)
	}
}

// tierSF builds one tiered shared frame for set tests.
func tierSF(t *testing.T, tier, count uint8, flags uint16, payload string) *SharedFrame {
	t.Helper()
	sf, err := SharedFromFrame(Frame{Type: TypeSemantic, Channel: 1,
		Flags: flags | FlagTier, Tier: tier, TierCount: count, Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestSharedFrameSet(t *testing.T) {
	set, err := NewSharedFrameSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if set.Complete() {
		t.Fatal("empty set reports complete")
	}
	// Tier 0: single closing frame. Tier 1: texture + closing pose.
	mustAdd := func(sf *SharedFrame) {
		t.Helper()
		if err := set.Add(sf); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(tierSF(t, 0, 3, FlagEndOfFrame, "pose0"))
	mustAdd(tierSF(t, 1, 3, 0, "tex1"))
	if set.Complete() {
		t.Fatal("set complete before every tier closed")
	}
	mustAdd(tierSF(t, 1, 3, FlagEndOfFrame, "pose1"))

	// Tier 2 never arrives: Nearest degrades to the best complete tier.
	frames, got := set.Nearest(2)
	if got != 1 || len(frames) != 2 {
		t.Fatalf("Nearest(2) = tier %d (%d frames), want tier 1 (2 frames)", got, len(frames))
	}
	if _, got := set.Nearest(0); got != 0 {
		t.Fatalf("Nearest(0) = tier %d, want 0", got)
	}

	mustAdd(tierSF(t, 2, 3, FlagEndOfFrame, "mesh2"))
	if !set.Complete() {
		t.Fatal("set incomplete after all tiers closed")
	}
	if _, got := set.Nearest(7); got != 2 {
		t.Fatalf("Nearest(7) = tier %d, want clamp to 2", got)
	}

	// Mismatched ladder sizes and untiered frames are rejected.
	if err := set.Add(tierSF(t, 0, 2, FlagEndOfFrame, "x")); err == nil {
		t.Error("mismatched TierCount accepted")
	}
	plain, _ := NewSharedFrame(TypeSemantic, 1, 0, []byte("x"))
	if err := set.Add(plain); err == nil {
		t.Error("untiered frame accepted")
	}
}

// measuredDemand is the semantic ladder's measured rung demand at 30 fps
// (≈420 / 2 070 / 7 350 wire bytes per frame).
var measuredDemand = []float64{0.10e6, 0.50e6, 1.76e6}

var ladderLevels = []RateLevel{{Name: "keypoint"}, {Name: "keypoint+texture"}, {Name: "hybrid"}}

// calmSignals is a congestion-free leg with measured demand and no
// capacity sample yet.
func calmSignals() TierSignals {
	return TierSignals{QueueDepth: 0, QueueCap: 16, DropRate: 0, RTT: 10 * time.Millisecond, Demand: measuredDemand}
}

func TestTierSelectorProbesAndBacksOff(t *testing.T) {
	sel := NewTierSelector(ladderLevels)
	t0 := time.Now()

	if tier, _ := sel.Decide(t0, calmSignals()); tier != 0 {
		t.Fatalf("start tier = %d, want 0", tier)
	}
	// Calm for the dwell period: probe one rung up (no capacity sample
	// yet is no evidence against the rung, so the leg probes).
	tier, switched := sel.Decide(t0.Add(500*time.Millisecond), calmSignals())
	if tier != 1 || !switched {
		t.Fatalf("after dwell: tier = %d switched = %v, want 1 true", tier, switched)
	}
	// Dwell restarts at the new rung: no immediate second step.
	if tier, _ := sel.Decide(t0.Add(600*time.Millisecond), calmSignals()); tier != 1 {
		t.Fatalf("dwell not restarted: tier = %d, want 1", tier)
	}
	if tier, _ := sel.Decide(t0.Add(1000*time.Millisecond), calmSignals()); tier != 2 {
		t.Fatalf("second probe: tier = %d, want 2", tier)
	}

	// Congestion (standing queue) forces a downgrade and bars the rung.
	congested := calmSignals()
	congested.QueueDepth = 8
	tier, switched = sel.Decide(t0.Add(1100*time.Millisecond), congested)
	if tier != 1 || !switched {
		t.Fatalf("congested: tier = %d switched = %v, want 1 true", tier, switched)
	}
	// Calm again, dwell passed — but rung 2 is barred for ~1 s.
	if tier, _ := sel.Decide(t0.Add(1600*time.Millisecond), calmSignals()); tier != 1 {
		t.Fatalf("barred rung re-probed too early: tier = %d, want 1", tier)
	}
	// After the bar expires the probe goes through.
	if tier, _ := sel.Decide(t0.Add(2200*time.Millisecond), calmSignals()); tier != 2 {
		t.Fatalf("bar expired: tier = %d, want 2", tier)
	}

	// Fail again: the bar doubles, but strong capacity evidence (the leg
	// measurably carries more than the rung demands, with headroom)
	// overrides it.
	congested.QueueDepth = 16
	if tier, _ = sel.Decide(t0.Add(2300*time.Millisecond), congested); tier != 1 {
		t.Fatalf("second failure: tier = %d, want 1", tier)
	}
	// Calm resumes (dwell clock restarts), bar now doubled to ~2 s — but
	// strong capacity evidence overrides the bar once the dwell passes.
	if tier, _ := sel.Decide(t0.Add(2400*time.Millisecond), calmSignals()); tier != 1 {
		t.Fatalf("calm after second failure: tier = %d, want 1", tier)
	}
	// Offered load is no evidence: a delivered-throughput estimate far
	// above the rung's demand leaves the bar standing.
	offered := calmSignals()
	offered.EstimateBps = measuredDemand[2] * 10
	if tier, _ := sel.Decide(t0.Add(2850*time.Millisecond), offered); tier != 1 {
		t.Fatalf("offered load overrode the bar: tier = %d, want 1", tier)
	}
	// Capacity short of the headroom neither overrides the bar nor probes.
	short := calmSignals()
	short.CapacityBps = measuredDemand[2] * 1.2
	if tier, _ := sel.Decide(t0.Add(2880*time.Millisecond), short); tier != 1 {
		t.Fatalf("capacity below headroom overrode the bar: tier = %d, want 1", tier)
	}
	strong := calmSignals()
	strong.CapacityBps = measuredDemand[2] * 1.3
	if tier, _ := sel.Decide(t0.Add(2900*time.Millisecond), strong); tier != 2 {
		t.Fatalf("strong evidence ignored: tier = %d, want 2", tier)
	}
	if sel.Switches() != 6 {
		t.Errorf("switches = %d, want 6", sel.Switches())
	}
}

// TestTierSelectorCapacityGatesProbes: a leg holding a capacity sample
// probes only rungs that sample covers with headroom, however long it
// stays calm; without a sample, or without a measured demand, it probes
// as a selector with no evidence does.
func TestTierSelectorCapacityGatesProbes(t *testing.T) {
	climb := func(capacity float64, demand []float64) (int, int64) {
		sel := NewTierSelector(ladderLevels)
		sig := calmSignals()
		sig.CapacityBps, sig.Demand = capacity, demand
		t0 := time.Now()
		for i := 0; i <= 40; i++ { // ten dwells at 100 ms a decision
			sel.Decide(t0.Add(time.Duration(i)*100*time.Millisecond), sig)
		}
		return sel.Current(), sel.Switches()
	}
	for _, c := range []struct {
		name     string
		capacity float64
		demand   []float64
		want     int
	}{
		{"200 kbps leg holds rung 0", 0.16e6, measuredDemand, 0},
		{"1 Mbps leg stops at rung 1", 0.86e6, measuredDemand, 1},
		{"25 Mbps leg reaches rung 2", 6.5e6, measuredDemand, 2},
		{"exactly the headroom is enough", measuredDemand[1] * tierHeadroom, measuredDemand, 1},
		{"no capacity sample probes", 0, measuredDemand, 2},
		{"no measured demand probes", 0.16e6, nil, 2},
		{"an unmeasured rung probes", 0.16e6, []float64{0.1e6, 0}, 2},
	} {
		if tier, switches := climb(c.capacity, c.demand); tier != c.want || switches != int64(c.want) {
			t.Errorf("%s: tier %d after %d switches, want %d after %d", c.name, tier, switches, c.want, c.want)
		}
	}
}

func TestTierSelectorDropAndRTTSignals(t *testing.T) {
	sel := NewTierSelector([]RateLevel{{}, {}})
	t0 := time.Now()
	sel.Decide(t0, calmSignals())
	if tier, _ := sel.Decide(t0.Add(time.Second), calmSignals()); tier != 1 {
		t.Fatalf("setup: tier = %d, want 1", tier)
	}
	shedding := calmSignals()
	shedding.DropRate = 0.5
	if tier, _ := sel.Decide(t0.Add(1100*time.Millisecond), shedding); tier != 0 {
		t.Fatalf("drop rate ignored: tier = %d, want 0", tier)
	}

	sel2 := NewTierSelector([]RateLevel{{}, {}})
	sel2.Decide(t0, calmSignals())
	sel2.Decide(t0.Add(time.Second), calmSignals())
	bloated := calmSignals()
	bloated.RTT = 400 * time.Millisecond
	if tier, _ := sel2.Decide(t0.Add(1100*time.Millisecond), bloated); tier != 0 {
		t.Fatalf("RTT inflation ignored: tier = %d, want 0", tier)
	}
}

// TestBandwidthEstimatorStaleDecay is the regression test for the
// frozen-estimate bug: a stream that goes quiet used to be scored at
// its last throughput forever, because decay only ever happened inside
// Observe. The estimate must age across idle gaps, and the first
// Observe after a gap must not fold the silent span into its window.
func TestBandwidthEstimatorStaleDecay(t *testing.T) {
	e := NewBandwidthEstimator() // 250 ms windows, 4-window stale period
	t0 := time.Now()

	// 2 Mbps steady for 1 s: 12.5 KB every 50 ms.
	now := t0
	for i := 0; i < 20; i++ {
		now = t0.Add(time.Duration(i+1) * 50 * time.Millisecond)
		e.Observe(now, 12500)
	}
	est := e.EstimateAt(now)
	if est < 1.5e6 || est > 2.5e6 {
		t.Fatalf("steady estimate = %.0f bps, want ≈2e6", est)
	}

	// Within the stale period (4 windows = 1 s) the estimate holds.
	if got := e.EstimateAt(now.Add(900 * time.Millisecond)); got != est {
		t.Errorf("estimate decayed inside stale period: %.0f vs %.0f", got, est)
	}
	// Past it, the estimate halves per further stale period.
	half := e.EstimateAt(now.Add(2 * time.Second))
	if half < est*0.45 || half > est*0.55 {
		t.Errorf("one period past stale: %.0f, want ≈%.0f", half, est/2)
	}
	quarter := e.EstimateAt(now.Add(3 * time.Second))
	if quarter < est*0.2 || quarter > est*0.3 {
		t.Errorf("two periods past stale: %.0f, want ≈%.0f", quarter, est/4)
	}
	// Deep silence decays toward zero — the stalled leg stops being
	// scored at its old throughput.
	if deep := e.EstimateAt(now.Add(20 * time.Second)); deep > est/1000 {
		t.Errorf("deeply stale estimate = %.0f, want ≈0", deep)
	}

	// Recovery: traffic resumes at the old rate after a 3 s gap. The
	// first window must span only the new traffic (windowOpen reset), so
	// the estimate climbs from the decayed floor instead of averaging
	// over the silent span.
	resume := now.Add(3 * time.Second)
	committed := e.EstimateAt(resume)
	for i := 0; i < 6; i++ {
		e.Observe(resume.Add(time.Duration(i)*50*time.Millisecond), 12500)
	}
	recovered := e.EstimateAt(resume.Add(300 * time.Millisecond))
	if recovered <= committed {
		t.Errorf("estimate did not recover: %.0f <= %.0f", recovered, committed)
	}
	// With Alpha 0.3, one 2 Mbps window over a ~0.5 Mbps floor lands
	// near 0.3·2e6 + 0.7·floor; an unreset window would have produced
	// a near-zero sample instead.
	if recovered < 0.5e6 {
		t.Errorf("recovery window polluted by idle gap: %.0f bps", recovered)
	}
}
