package service

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semholo/internal/body"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/obs"
	"semholo/internal/par"
	"semholo/internal/transport"
)

var testModel = body.NewModel(nil, body.ModelOptions{Detail: 1})

// wireRaw packs one pose into the wire form a sender would ship: body
// params, LZR-compressed, on the keypoint channel with end-of-frame set.
func wireRaw(codec compress.Codec, p *body.Params) core.RawFrame {
	return core.RawFrame{Frames: []transport.Frame{{
		Type:    transport.TypeSemantic,
		Channel: core.ChanKeypointData,
		Flags:   transport.FlagKeyframe | transport.FlagCompressed | transport.FlagEndOfFrame,
		Payload: codec.Encode(p.Marshal()),
	}}}
}

// motionWire builds a tenant's n-frame wire stream from a phase-shifted
// talking motion (distinct phases give distinct pose streams; equal
// phases give bitwise-identical ones).
func motionWire(codec compress.Codec, phase float64, n int) []core.RawFrame {
	motion := body.Talking(nil)
	out := make([]core.RawFrame, n)
	for i := range out {
		out[i] = wireRaw(codec, motion.At(phase+float64(i)/30))
	}
	return out
}

// TestServiceByteIdentityVsBareDecoder is the tentpole correctness bar:
// every tenant of a shared service must produce meshes byte-identical to
// its bare decoder decoding the same wire frames, over a 50-frame
// motion, at several pool sizes (worker-count invariance means the
// variable per-frame pool grants may not show in the output).
func TestServiceByteIdentityVsBareDecoder(t *testing.T) {
	const tenants, frames, res = 3, 50, 32
	codec := compress.LZR()
	for _, poolSize := range []int{1, 4} {
		svc := New(Options{
			Model:      testModel,
			Resolution: res,
			Pool:       par.NewPool(poolSize),
		})
		for ti := 0; ti < tenants; ti++ {
			st, err := svc.Admit(fmt.Sprintf("tenant-%d", ti))
			if err != nil {
				t.Fatal(err)
			}
			solo := &core.KeypointDecoder{
				Model: testModel, Codec: compress.LZR(), Resolution: res,
			}
			for fi, raw := range motionWire(codec, float64(ti)*0.37, frames) {
				got, err := st.Decode(context.Background(), raw)
				if err != nil {
					t.Fatal(err)
				}
				want, err := solo.Decode(raw.Frames)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Mesh, want.Mesh) {
					t.Fatalf("pool=%d tenant %d frame %d: service mesh differs from bare decoder",
						poolSize, ti, fi)
				}
				if !reflect.DeepEqual(got.Params, want.Params) {
					t.Fatalf("pool=%d tenant %d frame %d: params differ", poolSize, ti, fi)
				}
			}
			svc.Detach(st.ID())
		}
		svc.Close()
	}
}

// TestServiceCrossTenantCacheHits: tenants replaying the same pose
// stream (the correlated workload) must dedup onto shared cache entries.
func TestServiceCrossTenantCacheHits(t *testing.T) {
	codec := compress.LZR()
	svc := New(Options{Model: testModel, Resolution: 24})
	defer svc.Close()
	stream := motionWire(codec, 0, 6)
	for ti := 0; ti < 3; ti++ {
		st, err := svc.Admit(fmt.Sprintf("t%d", ti))
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range stream {
			if _, err := st.Decode(context.Background(), raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := svc.Counters().Snapshot()
	if s.CrossTenantHits == 0 {
		t.Fatalf("no cross-tenant hits on identical pose streams (hits %d, misses %d)",
			s.MeshHits, s.MeshMisses)
	}
	if s.MeshMisses != 6 {
		t.Errorf("misses = %d, want 6 (one per unique pose)", s.MeshMisses)
	}
}

// TestServiceTenantChurnNoLeaks: admitting, serving, and detaching many
// tenants must leave no goroutines behind (the service owns none; this
// guards regressions that add some).
func TestServiceTenantChurnNoLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	codec := compress.LZR()
	svc := New(Options{Model: testModel, Resolution: 16})
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for ti := 0; ti < 8; ti++ {
			st, err := svc.Admit(fmt.Sprintf("r%d-t%d", round, ti))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(st *StreamCtx, phase float64) {
				defer wg.Done()
				for _, raw := range motionWire(codec, phase, 2) {
					if _, err := st.Decode(context.Background(), raw); err != nil {
						t.Error(err)
						return
					}
				}
				svc.Detach(st.ID())
			}(st, float64(ti)*0.2)
		}
		wg.Wait()
	}
	svc.Close()
	if n := svc.TenantCount(); n != 0 {
		t.Fatalf("%d tenants left after churn", n)
	}
	// Goroutine counts settle asynchronously; retry before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	pprof.Lookup("goroutine").WriteTo(testingWriter{t}, 1)
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
}

type testingWriter struct{ t *testing.T }

func (w testingWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestServiceConcurrentAdmitDetachHammer is the -race hammer: 32 tenants
// admitting, decoding, and detaching concurrently against one service,
// with a correlated workload so the shared cache's single-flight path is
// exercised under real contention.
func TestServiceConcurrentAdmitDetachHammer(t *testing.T) {
	const tenants = 32
	codec := compress.LZR()
	svc := New(Options{Model: testModel, Resolution: 16})
	defer svc.Close()
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			// Four pose groups of eight tenants → plenty of cross-tenant
			// collisions on the flights map and LRU.
			stream := motionWire(codec, float64(ti%4)*0.25, 3)
			for round := 0; round < 2; round++ {
				st, err := svc.Admit(fmt.Sprintf("h%d-%d", ti, round))
				if err != nil {
					t.Error(err)
					return
				}
				for _, raw := range stream {
					if _, err := st.Decode(context.Background(), raw); err != nil {
						t.Error(err)
						return
					}
				}
				svc.Detach(st.ID())
			}
		}(ti)
	}
	wg.Wait()
	if in := svc.Pool().InUse(); in != 0 {
		t.Fatalf("pool slots leaked: %d in use", in)
	}
}

// countingDecoder records peak concurrent Decode calls.
type countingDecoder struct {
	running, peak atomic.Int64
}

func (d *countingDecoder) Mode() core.Mode { return core.ModeKeypoint }

func (d *countingDecoder) Decode([]transport.Frame) (core.FrameData, error) {
	now := d.running.Add(1)
	for {
		old := d.peak.Load()
		if now <= old || d.peak.CompareAndSwap(old, now) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	d.running.Add(-1)
	return core.FrameData{}, nil
}

// TestServiceInFlightCap: a tenant decodes one frame at a time — a
// burst of concurrent calls must queue, not decode concurrently.
func TestServiceInFlightCap(t *testing.T) {
	dec := &countingDecoder{}
	svc := New(Options{
		Pool:       par.NewPool(8),
		NewDecoder: func(Options) core.Decoder { return dec },
	})
	defer svc.Close()
	st, err := svc.Admit("bursty")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Decode(context.Background(), core.RawFrame{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := dec.peak.Load(); got != 1 {
		t.Fatalf("peak concurrent decodes %d, want 1", got)
	}
	if st.Frames() != 12 {
		t.Fatalf("decoded %d frames, want 12", st.Frames())
	}
}

// TestServiceLifecycleErrors covers admission bookkeeping: duplicate
// ids, decode-after-detach, admit-after-close.
func TestServiceLifecycleErrors(t *testing.T) {
	svc := New(Options{Model: testModel, Resolution: 16})
	st, err := svc.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admit("a"); err == nil {
		t.Fatal("duplicate admit succeeded")
	}
	svc.Detach("a")
	if _, err := st.Decode(context.Background(), core.RawFrame{}); err == nil {
		t.Fatal("decode after detach succeeded")
	}
	svc.Close()
	if _, err := svc.Admit("b"); err == nil {
		t.Fatal("admit after close succeeded")
	}
}

// TestServiceMetricsExported: the registry carries the per-tenant
// families and the cross-tenant counter after a correlated run.
func TestServiceMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	codec := compress.LZR()
	svc := New(Options{Model: testModel, Resolution: 16, Registry: reg})
	defer svc.Close()
	stream := motionWire(codec, 0, 3)
	for _, id := range []string{"a", "b"} {
		st, err := svc.Admit(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range stream {
			if _, err := st.Decode(context.Background(), raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	found := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		found[fam.Name] = true
		if fam.Name == "semholo_meshcache_crosstenant_hits_total" {
			if len(fam.Series) == 0 || fam.Series[0].Value == 0 {
				t.Error("cross-tenant hits metric is zero after correlated run")
			}
		}
	}
	for _, name := range []string{
		"semholo_service_queue_depth",
		"semholo_service_decode_seconds",
		"semholo_service_frames_total",
		"semholo_service_tenants",
		"semholo_meshcache_crosstenant_hits_total",
	} {
		if !found[name] {
			t.Errorf("metric %s not exported", name)
		}
	}
}
