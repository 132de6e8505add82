package avatar

// Field acceleration: a per-frame capsule culling grid that makes each
// SDF sample cost O(nearby capsules) instead of O(all capsules), without
// changing a single output bit.
//
// The world is partitioned into coarse bins of binCells×binCells×binCells
// fine lattice cells, aligned to the same world lattice the extraction
// grid anchors to. Each bin, built lazily the first time a sample lands
// in it, stores the list of capsules that could possibly belong to the
// relevant set of ANY point in the bin. The pruned fold over that
// candidate list — in bone order — then reproduces the full fold exactly:
//
//   - Lower bound: capsule i lies inside segBox[i] (the AABB of its
//     segment endpoints), so for every q in the bin's box B,
//     dᵢ(q) ≥ dist(B, segBox[i]) − radiusᵢ =: loᵢ.
//   - Upper bound: the minimum capsule distance m1 is 1-Lipschitz, so for
//     every q ∈ B, m1(q) ≤ m1(center) + halfDiagonal(B) =: U.
//   - Cut: candidates are {i : loᵢ < U + k}. Every excluded bone has
//     dᵢ(q) ≥ U + k ≥ m1(q) + k for all q ∈ B, which puts it outside the
//     relevant set {i : dᵢ < m1 + k} — it can neither attain the minimum
//     nor enter the smooth-min fold (smoothMin(a, b, k) == a exactly when
//     b ≥ a + k). The argmin bone always satisfies lo ≤ m1(q) ≤ U < U+k,
//     so it is always a candidate and the pruned m1 is the exact m1.
//
// Bins are expanded by half a fine cell on every side before the bounds
// are taken, so the floating-point floor that assigns a point to its bin
// cannot disagree with the geometry: a point misassigned by an ulp is
// still deep inside the expanded box, and all comparisons above are
// conservative by a margin of ~cell/2 — vastly more than any rounding.

import (
	"math"
	"sync"

	"semholo/internal/geom"
	"semholo/internal/metrics"
)

// binCells is the culling-bin edge length in fine lattice cells. 4³ fine
// cells per bin keeps the bin half-diagonal (≈ 3.5 cells) — the slack the
// Lipschitz upper bound pays — small enough for tight candidate sets
// (measured ~6 candidates/bin vs ~10 at 8³ on the res-128 body), while
// the lazy build cost (one full capsule scan per bin) stays far below
// the sample cost it saves: a bin serves ~tens of samples per frame.
const binCells = 4

// gridBin is one built culling bin: its candidate list, an offset/length
// into the shared arena.
type gridBin struct{ off, n int32 }

// capsuleGrid is the per-frame culling structure. It is rebuilt (cheaply:
// maps cleared, arenas truncated) by reset at the start of every frame
// and populated lazily under a mutex as samples touch bins; candidate
// slices handed out are immutable for the rest of the frame, so readers
// capture them under the lock and then evaluate lock-free.
type capsuleGrid struct {
	bg      boneGeometry
	k       float64
	binSize float64
	invBin  float64
	slack   float64     // half a fine cell: FP-safety margin on bin bounds
	segBox  []geom.AABB // per-capsule segment endpoint box (radius excluded)
	stats   *metrics.FieldCounters

	mu      sync.Mutex
	bins    map[int64]int32 // bin key → index into entries
	entries []gridBin
	cands   []uint16 // shared candidate arena, append-only within a frame
}

// reset rearms the grid for a new frame's capsules. Previously built bins
// are discarded; the map and arenas are reused so steady-state frames do
// not allocate.
func (g *capsuleGrid) reset(bg boneGeometry, k, cell float64, stats *metrics.FieldCounters) {
	g.bg, g.k = bg, k
	g.binSize = binCells * cell
	g.invBin = 1 / g.binSize
	g.slack = 0.5 * cell
	g.stats = stats
	g.segBox = g.segBox[:0]
	for i := range bg.a {
		g.segBox = append(g.segBox, geom.NewAABB(bg.a[i], bg.b[i]))
	}
	if g.bins == nil {
		g.bins = make(map[int64]int32)
	} else {
		clear(g.bins)
	}
	g.entries = g.entries[:0]
	g.cands = g.cands[:0]
}

// binBias packs signed bin coordinates into one map key, 21 bits per axis
// around a 2²⁰ bias.
const binBias = 1 << 20

func (g *capsuleGrid) keyOf(q geom.Vec3) int64 {
	i := int(math.Floor(q.X * g.invBin))
	j := int(math.Floor(q.Y * g.invBin))
	k := int(math.Floor(q.Z * g.invBin))
	return int64(i+binBias)<<42 | int64(j+binBias)<<21 | int64(k+binBias)
}

// lookup returns the candidate list for the bin containing q, building
// it on first touch. The returned slice stays valid for the rest of the
// frame even if the arena's backing array is later regrown: appends
// never mutate already-handed-out elements.
func (g *capsuleGrid) lookup(q geom.Vec3) []uint16 {
	bi := math.Floor(q.X * g.invBin)
	bj := math.Floor(q.Y * g.invBin)
	bk := math.Floor(q.Z * g.invBin)
	key := int64(int(bi)+binBias)<<42 | int64(int(bj)+binBias)<<21 | int64(int(bk)+binBias)

	g.mu.Lock()
	if idx, ok := g.bins[key]; ok {
		e := g.entries[idx]
		c := g.cands[e.off : e.off+e.n]
		g.mu.Unlock()
		return c
	}

	// Build the bin: expanded box, center-based upper bound, then the
	// conservative per-capsule lower-bound test, in bone order.
	min := geom.Vec3{X: bi * g.binSize, Y: bj * g.binSize, Z: bk * g.binSize}
	box := geom.AABB{
		Min: min,
		Max: min.Add(geom.V3(g.binSize, g.binSize, g.binSize)),
	}.Expand(g.slack)
	center := box.Center()
	m1c := math.Inf(1)
	for i := range g.bg.a {
		if d := geom.SegDist(center, g.bg.a[i], g.bg.b[i]) - g.bg.radius[i]; d < m1c {
			m1c = d
		}
	}
	upper := m1c + 0.5*box.Diagonal()
	thresh := upper + g.k
	off := int32(len(g.cands))
	for i := range g.bg.a {
		rhs := thresh + g.bg.radius[i]
		if rhs > 0 && g.segBox[i].DistSqBox(box) < rhs*rhs {
			g.cands = append(g.cands, uint16(i))
		}
	}
	e := gridBin{off: off, n: int32(len(g.cands)) - off}
	g.entries = append(g.entries, e)
	g.bins[key] = int32(len(g.entries)) - 1
	c := g.cands[e.off : e.off+e.n]
	g.mu.Unlock()

	g.stats.AddBin(int(e.n))
	return c
}

// evalPruned is the fold of evalFull restricted to the bin's candidate list.
// Candidates are in bone order and provably cover the relevant set, so
// the result is bitwise-identical to the full fold (see the proof at the
// top of this file).
func (f *frameField) evalPruned(q geom.Vec3, cands []uint16) (float64, float64) {
	var buf [maxBones]float64
	ds := buf[:]
	if len(cands) > maxBones {
		ds = make([]float64, len(cands))
	}
	m1 := math.Inf(1)
	for ci, i := range cands {
		di := geom.SegDist(q, f.cur.a[i], f.cur.b[i]) - f.cur.radius[i]
		ds[ci] = di
		if di < m1 {
			m1 = di
		}
	}
	v := 1e9
	for ci := range cands {
		if ds[ci] < m1+f.k {
			v = smoothMin(v, ds[ci], f.k)
		}
	}
	return v, m1
}

// eval1 evaluates one sample through the culling grid when one is armed,
// falling back to the full fold otherwise (or defensively, should a bin
// ever produce an empty candidate list). Returns the number of exact
// capsule tests performed alongside the sample.
func (f *frameField) eval1(q geom.Vec3) (v, aux float64, tests uint64) {
	if f.grid != nil {
		if cands := f.grid.lookup(q); len(cands) > 0 {
			v, aux = f.evalPruned(q, cands)
			return v, aux, uint64(len(cands))
		}
	}
	v, aux = f.evalFull(q)
	return v, aux, uint64(len(f.cur.a))
}

// EvalBatch evaluates a chunk of lattice points in one call, memoizing
// the bin lookup across consecutive points (extraction wavefronts are
// spatially coherent, so runs of points share a bin) and flushing the
// telemetry counters once per batch instead of once per sample. Each
// out[i] is exactly what Eval(pts[i]) would return.
func (f *frameField) EvalBatch(pts []geom.Vec3, out []float64) {
	var tests uint64
	if g := f.grid; g != nil {
		var cands []uint16
		lastKey, haveBin := int64(0), false
		for i, q := range pts {
			key := g.keyOf(q)
			if !haveBin || key != lastKey {
				cands = g.lookup(q)
				lastKey, haveBin = key, true
			}
			if len(cands) > 0 {
				out[i], _ = f.evalPruned(q, cands)
				tests += uint64(len(cands))
			} else {
				out[i], _ = f.evalFull(q)
				tests += uint64(len(f.cur.a))
			}
		}
	} else {
		for i, q := range pts {
			out[i], _ = f.evalFull(q)
		}
		tests = uint64(len(pts)) * uint64(len(f.cur.a))
	}
	f.stats.AddSamples(uint64(len(pts)), tests)
	f.evaluated.Add(uint64(len(pts)))
}
