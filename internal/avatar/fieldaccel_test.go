package avatar

// Tests for the capsule culling grid: the pruned field must be
// bitwise-identical to the brute-force fold at every point — randomized
// poses, blending radii, lattice points, and points deep inside capsules
// — and full reconstructions must stay byte-identical with pruning on or
// off, on fresh or reused reconstructors, at every worker count.

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/metrics"
)

// randPose perturbs a motion frame with random joint rotations so the
// capsule layout differs every trial.
func randPose(rng *rand.Rand) *body.Params {
	p := body.Talking(nil).At(rng.Float64() * 10)
	for j := range p.Pose {
		p.Pose[j] = p.Pose[j].Add(geom.V3(
			(rng.Float64()*2-1)*0.3,
			(rng.Float64()*2-1)*0.3,
			(rng.Float64()*2-1)*0.3,
		))
	}
	return p
}

// prunedPair builds a pruned and an unpruned frameField over the same
// posed capsules.
func prunedPair(rec *Reconstructor, p *body.Params, k float64) (pruned, full *frameField) {
	bg := rec.posedBones(p)
	full = &frameField{cur: bg, k: k}
	grid := &capsuleGrid{}
	grid.reset(bg, k, rec.cellSize(), nil)
	pruned = &frameField{cur: bg, k: k, grid: grid}
	return pruned, full
}

func samePair(t *testing.T, ctx string, v1, a1, v2, a2 float64) {
	t.Helper()
	if math.Float64bits(v1) != math.Float64bits(v2) || math.Float64bits(a1) != math.Float64bits(a2) {
		t.Fatalf("%s: pruned (%x, %x) != full (%x, %x)", ctx,
			math.Float64bits(v1), math.Float64bits(a1),
			math.Float64bits(v2), math.Float64bits(a2))
	}
}

func TestFieldPrunedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		k := []float64{0.004, 0.015, 0.05, 0.12}[trial%4]
		rec := &Reconstructor{Model: fitModel, Resolution: 64, SmoothK: k}
		p := randPose(rng)
		pruned, full := prunedPair(rec, p, k)

		bounds := capsuleBounds(pruned.cur).Expand(0.3)
		size := bounds.Size()
		for s := 0; s < 400; s++ {
			q := bounds.Min.Add(geom.V3(
				rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z))
			v1, a1, _ := pruned.eval1(q)
			v2, a2 := full.evalFull(q)
			samePair(t, "random point", v1, a1, v2, a2)
		}
		// Points on and inside capsules (t ≤ 0 territory: negative
		// distances, where the bin bounds must still hold).
		for i := range pruned.cur.a {
			for _, tt := range []float64{-0.2, 0, 0.3, 0.5, 1, 1.2} {
				q := pruned.cur.a[i].Lerp(pruned.cur.b[i], tt)
				v1, a1, _ := pruned.eval1(q)
				v2, a2 := full.evalFull(q)
				samePair(t, "capsule point", v1, a1, v2, a2)
			}
		}
		// Exact lattice points, the coordinates reconstruction feeds it.
		cell := rec.cellSize()
		for s := 0; s < 200; s++ {
			q := geom.V3(
				float64(int(bounds.Min.X/cell)+rng.Intn(70))*cell,
				float64(int(bounds.Min.Y/cell)+rng.Intn(70))*cell,
				float64(int(bounds.Min.Z/cell)+rng.Intn(70))*cell)
			v1, a1, _ := pruned.eval1(q)
			v2, a2 := full.evalFull(q)
			samePair(t, "lattice point", v1, a1, v2, a2)
		}
	}
}

func FuzzFieldPrunedEval(f *testing.F) {
	f.Add(0.1, -0.3, 0.9, int64(1))
	f.Add(-2.0, 1.5, 0.0, int64(9))
	f.Add(0.0, 0.8, 0.05, int64(3))
	rec := &Reconstructor{Model: fitModel, Resolution: 64}
	f.Fuzz(func(t *testing.T, x, y, z float64, seed int64) {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) ||
			math.Abs(x) > 1e6 || math.Abs(y) > 1e6 || math.Abs(z) > 1e6 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		pruned, full := prunedPair(rec, randPose(rng), 0.015)
		q := geom.V3(x, y, z)
		v1, a1, _ := pruned.eval1(q)
		v2, a2 := full.evalFull(q)
		samePair(t, "fuzz point", v1, a1, v2, a2)
	})
}

// TestFieldPruningMotionByteIdentity is the tentpole regression: a
// 50-frame motion replay must produce byte-identical meshes with pruning
// on and off at several worker counts including GOMAXPROCS.
func TestFieldPruningMotionByteIdentity(t *testing.T) {
	frames := motionFrames(body.Talking(nil), 50, 1.0/30)
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerSet {
		pruned := &Reconstructor{Model: fitModel, Resolution: 32, Workers: workers}
		unpruned := &Reconstructor{Model: fitModel, Resolution: 32, Workers: workers, Unpruned: true}
		ref := &Reconstructor{Model: fitModel, Resolution: 32, Workers: 1, Unpruned: true}
		for fi, p := range frames {
			want := ref.Reconstruct(p)
			if m := pruned.Reconstruct(p); !reflect.DeepEqual(m, want) {
				t.Fatalf("workers=%d frame %d: pruned mesh differs from serial unpruned", workers, fi)
			}
			if m := unpruned.Reconstruct(p); !reflect.DeepEqual(m, want) {
				t.Fatalf("workers=%d frame %d: unpruned mesh differs from serial unpruned", workers, fi)
			}
		}
	}
}

// TestFieldDenseBatchByteIdentity pins the dense path: the batched dense
// extractor with pruning must match the unpruned dense extraction.
func TestFieldDenseBatchByteIdentity(t *testing.T) {
	p := body.Talking(nil).At(0.4)
	for _, workers := range []int{1, 3} {
		pruned := &Reconstructor{Model: fitModel, Resolution: 32, Dense: true, Workers: workers}
		unpruned := &Reconstructor{Model: fitModel, Resolution: 32, Dense: true, Workers: 1, Unpruned: true}
		if !reflect.DeepEqual(pruned.Reconstruct(p), unpruned.Reconstruct(p)) {
			t.Fatalf("workers=%d: pruned dense mesh differs from unpruned", workers)
		}
	}
}

// TestFieldEmptyBones pins the no-capsule edge: empty space everywhere,
// reported as +Inf rather than a finite sentinel.
func TestFieldEmptyBones(t *testing.T) {
	f := &frameField{k: 0.015}
	v, aux, _ := f.eval1(geom.V3(0.3, -1, 2))
	if !math.IsInf(v, 1) || !math.IsInf(aux, 1) {
		t.Fatalf("empty field = (%g, %g), want (+Inf, +Inf)", v, aux)
	}
}

func benchReconstruct(b *testing.B, res int, unpruned bool) {
	rec := &Reconstructor{Model: fitModel, Resolution: res, Unpruned: unpruned}
	frames := motionFrames(body.Talking(nil), 16, 1.0/30)
	rec.Reconstruct(frames[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reconstruct(frames[i%len(frames)])
	}
}

func BenchmarkReconstructColdPruned128(b *testing.B)   { benchReconstruct(b, 128, false) }
func BenchmarkReconstructColdUnpruned128(b *testing.B) { benchReconstruct(b, 128, true) }

// TestFieldPruningEngages checks the mechanism actually prunes: with the
// culling grid armed, mean exact capsule tests per sample must drop well
// below the full capsule count, and the unpruned arm must sit exactly at
// it.
func TestFieldPruningEngages(t *testing.T) {
	p := body.Talking(nil).At(0)
	nCapsules := float64(body.NumJoints) // 56 bones + 1 head capsule

	var pc metrics.FieldCounters
	pruned := &Reconstructor{Model: fitModel, Resolution: 64, FieldStats: &pc}
	pruned.Reconstruct(p)
	ps := pc.Snapshot()
	if ps.Samples == 0 || ps.BinsBuilt == 0 {
		t.Fatalf("pruning did not engage: %+v", ps)
	}
	if tps := ps.TestsPerSample(); tps > nCapsules/2 {
		t.Fatalf("tests per sample %.1f, want well below %0.f", tps, nCapsules)
	}

	var uc metrics.FieldCounters
	unpruned := &Reconstructor{Model: fitModel, Resolution: 64, FieldStats: &uc, Unpruned: true}
	unpruned.Reconstruct(p)
	us := uc.Snapshot()
	if tps := us.TestsPerSample(); tps != nCapsules {
		t.Fatalf("unpruned tests per sample %.1f, want exactly %0.f", tps, nCapsules)
	}
	if us.BinsBuilt != 0 {
		t.Fatalf("unpruned arm built %d bins", us.BinsBuilt)
	}
}
