package avatar

import (
	"math"
	"testing"

	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/metrics"
)

// extractDense is the full-grid ablation of Reconstruct: the scalar
// extractor evaluates r's field for p at every lattice sample (O(R³))
// where the narrow band evaluates O(R²). It returns the mesh and the
// samples the field evaluated.
func extractDense(r *Reconstructor, p *body.Params) (*mesh.Mesh, uint64) {
	bg := r.posedBones(p)
	f := &frameField{cur: bg, k: r.smoothK()}
	m := mesh.ExtractIsosurface(f.Eval, r.gridFor(bg))
	return m, f.evaluated.Load()
}

// TestFieldEmptyBones pins the no-capsule edge: empty space everywhere,
// reported as +Inf rather than a finite sentinel.
func TestFieldEmptyBones(t *testing.T) {
	f := &frameField{k: 0.015}
	if v := f.fold(geom.V3(0.3, -1, 2)); !math.IsInf(v, 1) {
		t.Fatalf("empty field = %g, want +Inf", v)
	}
}

// TestNarrowBandEvaluatesFewerSamples: the narrow band's reason to
// exist, asserted on the deterministic work count rather than on wall
// clock — the field samples one frame's extraction evaluates, narrow
// band against the full grid.
func TestNarrowBandEvaluatesFewerSamples(t *testing.T) {
	var c metrics.ReconCounters
	p := body.Talking(nil).At(0.5)
	rec := &Reconstructor{Model: fitModel, Resolution: 32, Workers: 1, Counters: &c}
	rec.Reconstruct(p)
	sparse := c.Snapshot().SamplesEvaluated
	if _, dense := extractDense(rec, p); sparse == 0 || dense <= sparse {
		t.Errorf("dense evaluated %d field samples, narrow band %d at res 32: the narrow band saves nothing", dense, sparse)
	}
}

// BenchmarkReconstructCold128 times one narrow-band extraction per frame
// of the talking motion at res 128.
func BenchmarkReconstructCold128(b *testing.B) {
	rec := &Reconstructor{Model: fitModel, Resolution: 128}
	frames := motionFrames(body.Talking(nil), 16, 1.0/30)
	rec.Reconstruct(frames[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reconstruct(frames[i%len(frames)])
	}
}

// BenchmarkReconstructDense128 is BenchmarkReconstructCold128's
// full-grid ablation: the same frames through extractDense.
func BenchmarkReconstructDense128(b *testing.B) {
	rec := &Reconstructor{Model: fitModel, Resolution: 128}
	frames := motionFrames(body.Talking(nil), 16, 1.0/30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extractDense(rec, frames[i%len(frames)])
	}
}
