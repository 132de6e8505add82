package metrics

import "testing"

func TestReconCountersSnapshot(t *testing.T) {
	var c ReconCounters
	c.AddMeshHit()
	c.AddMeshHit()
	c.AddMeshMiss()
	c.AddMeshEviction()
	c.AddFrame(10)
	c.AddFrame(200)

	s := c.Snapshot()
	if s.MeshHits != 2 || s.MeshMisses != 1 || s.MeshEvictions != 1 {
		t.Fatalf("mesh counters %+v", s)
	}
	if s.Frames != 2 || s.SamplesEvaluated != 210 || s.SamplesReused != 0 {
		t.Fatalf("frame/sample counters %+v", s)
	}
	if hr := s.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate %v", hr)
	}
}

// TestReconCountersNilSafe: every method must be a no-op on nil, so call
// sites can hook counters up optionally without guards.
func TestReconCountersNilSafe(t *testing.T) {
	var c *ReconCounters
	c.AddMeshHit()
	c.AddMeshMiss()
	c.AddMeshEviction()
	c.AddFrame(2)
	if s := c.Snapshot(); s != (ReconStats{}) {
		t.Fatalf("nil snapshot %+v", s)
	}
	if s := c.Snapshot(); s.HitRate() != 0 {
		t.Fatal("nil hit rate nonzero")
	}
}
