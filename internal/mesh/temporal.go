package mesh

// Temporal-coherence support for the narrow-band extractor: a field
// interface that can vouch for the cross-frame validity of individual
// lattice samples, and a state object carrying the previous frame's
// surface band, sample cache, and scratch arenas.

import "semholo/internal/geom"

// TemporalField is a scalar field that supports exact cross-frame sample
// reuse. Eval returns the field value plus an auxiliary datum that is
// cached alongside it (the avatar SDF stores its exact minimum capsule
// distance there). Reusable reports whether a sample recorded by the
// previous frame's field at the same lattice point is still valid.
//
// The contract is strict: Reusable(p, val, aux) == true promises that
// Eval(p) would return exactly (val, aux) — bitwise, not approximately.
// The extractor's byte-identical-to-cold guarantee rests on this.
//
// Implementations must be safe for concurrent calls (the extractor
// batches evaluations across workers), which pure functions of the input
// point satisfy trivially.
type TemporalField interface {
	Eval(p geom.Vec3) (val, aux float64)
	Reusable(p geom.Vec3, val, aux float64) bool
}

// scalarTemporal adapts a plain ScalarField: no auxiliary datum, no
// cross-frame reuse.
type scalarTemporal struct{ f ScalarField }

func (s scalarTemporal) Eval(p geom.Vec3) (float64, float64)       { return s.f(p), 0 }
func (s scalarTemporal) Reusable(geom.Vec3, float64, float64) bool { return false }

// Sample is one field evaluation: the value plus the auxiliary datum a
// TemporalField carries alongside it (the avatar SDF stores its exact
// minimum capsule distance there). It is the unit the lattice cache
// stores and the element type of BatchField.EvalBatch output.
type Sample struct{ Val, Aux float64 }

// cell3 addresses a lattice cube in grid-local coordinates.
type cell3 struct{ i, j, k int }

// packG packs global integer lattice coordinates into one map key.
// 21 bits per axis around a 2²⁰ bias covers ±1M cells — far beyond any
// grid this package is asked to build.
const packBias = 1 << 20

func packG(i, j, k int) int64 {
	return int64(i+packBias)<<42 | int64(j+packBias)<<21 | int64(k+packBias)
}

func unpackG(key int64) (i, j, k int) {
	const mask = 1<<21 - 1
	return int(key>>42&mask) - packBias,
		int(key>>21&mask) - packBias,
		int(key&mask) - packBias
}

// SparseState carries temporal-coherence state for
// ExtractIsosurfaceSparseTemporal across frames: the previous frame's
// surface band (packed global cell coordinates), its lattice samples, and
// every scratch buffer the extractor needs, so steady-state warm frames
// stop allocating. The zero value is ready to use; the first extraction
// through it runs cold. A SparseState must not be shared between
// concurrent extractions.
type SparseState struct {
	// Stats for the most recent extraction through this state.
	Reused    int  // lattice samples satisfied by the previous frame's cache
	Evaluated int  // lattice samples freshly evaluated
	Warm      bool // whether the wavefront was seeded from a previous band

	cell float64 // lattice spacing the cached band/samples are valid for
	band []int64 // previous band cells, packed global coords, sorted
	// Previous frame's lattice samples: a flat sample arena plus a slot
	// index over it — a dense int32 per lattice vertex on moderate grids
	// (prevDense, addressed through prevBase/prevV* bounds), a map keyed
	// by packed global coords on huge ones. Splitting the index from the
	// payload keeps within-frame reads on array indexing — profiling
	// shows map traffic, not field math, dominates extraction once the
	// field itself is pruned.
	prev          map[int64]int32
	prevSamples   []Sample
	prevSlotDense []int32
	prevDense     bool
	prevBase      [3]int
	prevVX        int
	prevVY        int
	prevVZ        int

	// Scratch arenas; contents are meaningless between runs.
	cur          map[int64]int32
	curSamples   []Sample
	slotDense    []int32        // dense per-vertex arena slot + 1 (0 = unsampled)
	visited      map[int64]bool // wavefront dedup (large grids only; see visitedDense)
	visitedDense []uint8        // dense per-cell dedup for moderate grids
	front        []cell3
	next         []cell3
	needPts      []geom.Vec3
	needIdx      []int32 // arena slot for each freshly discovered vertex
	needPrev     []int32 // previous-frame arena slot for it, or -1
	needOut      []Sample
	needHit      []bool
	batchPts     []geom.Vec3 // per-round compaction of not-reusable points (BatchField path)
	batchOut     []Sample
	batchIdx     []int32
	cornerIdx    []int32 // per-round: 8 arena slots per frontier cube
	bandCells    []cell3
	bandCorners  []int32 // 8 arena slots per band cell, permuted with it
	roots        []int64
	mark         []uint8 // dense per-cell marks for the reachability filter
	queue        []cell3
	rays         []seedRay
}

// Reset drops the cached band and samples so the next extraction runs
// cold (scratch arenas are kept). Call it when the field changes in a way
// the TemporalField cannot account for — e.g. a resolution switch.
func (st *SparseState) Reset() {
	st.band = st.band[:0]
	if st.prev != nil {
		clear(st.prev)
	}
	st.prevSamples = st.prevSamples[:0]
	st.cell = 0
}

// seedRay is the per-ray scratch for lattice-aligned seed marching.
type seedRay struct {
	keys  []int64
	pts   []geom.Vec3
	out   []Sample
	hit   []bool
	cross []cell3
}
