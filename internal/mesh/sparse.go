package mesh

import (
	"math"
	"sort"

	"semholo/internal/geom"
	"semholo/internal/par"
)

// BatchField is a scalar field that evaluates a chunk of lattice points
// in one call. EvalBatch fills out[i] with exactly what Eval(pts[i])
// would return, bitwise; a chunk call lets the field do its per-call
// bookkeeping (for the avatar SDF, its sample count) once per chunk
// instead of once per point. Both methods must be safe for concurrent
// calls, and out has the same length as pts.
type BatchField interface {
	Eval(p geom.Vec3) float64
	EvalBatch(pts []geom.Vec3, out []float64)
}

// ExtractIsosurfaceSparse polygonizes the zero level set of f like
// ExtractIsosurface but visits only lattice cubes near the surface, so
// its cost scales with surface area (O(R²)) instead of volume (O(R³)).
//
// Seeds are interior points: the extractor snaps each one to the lattice
// and marches the six axis directions until the field changes sign, then
// flood-fills from the cells around every crossing (and around the seed
// itself) across sign-crossing cubes (6-adjacency). Every connected
// surface component must be reachable this way from at least one seed;
// components with none are silently missed. The avatar reconstructor
// seeds from its bone midpoints, covering every component by
// construction.
//
// Discovery proceeds in wavefront rounds: each round gathers the
// not-yet-sampled lattice vertices of every frontier cube and evaluates
// them in parallel chunks through f.EvalBatch (the dominant cost), then
// grows the next ring across sign-crossing faces. The discovered band is
// finally sorted into lattice scan order and polygonized serially, so the
// mesh is a pure function of the band and the field values: workers only
// changes how evaluations are scheduled, and the output is byte-identical
// at every worker count.
func ExtractIsosurfaceSparse(f BatchField, grid GridSpec, seeds []geom.Vec3, workers int) *Mesh {
	lay, ok := grid.layout()
	if !ok || len(seeds) == 0 {
		return &Mesh{}
	}

	// Lattice samples live in a flat arena; the slot index — a dense
	// int32 per lattice vertex on moderate grids, a map on huge ones —
	// assigns each vertex its arena slot once, at discovery time, so every
	// later read (sign detection, polygonization) is plain array indexing.
	// Dense slots store slot+1, so a zeroed array means "unsampled".
	const denseMax = 1 << 24 // cells or vertices; ≤64MB int32 scratch
	nVX, nVY, nVZ := lay.nx+1, lay.ny+1, lay.nz+1
	var slots []int32
	var slotMap map[int]int32
	if nVX*nVY*nVZ <= denseMax {
		slots = make([]int32, nVX*nVY*nVZ)
	} else {
		slotMap = make(map[int]int32)
	}
	var samples []float64
	// slot returns the arena slot of lattice vertex (i, j, k), appending
	// a zero placeholder for the caller to fill when the vertex is new.
	slot := func(i, j, k int) (idx int32, fresh bool) {
		vi := (k*nVY+j)*nVX + i
		if slots != nil {
			if sv := slots[vi]; sv != 0 {
				return sv - 1, false
			}
			idx = int32(len(samples))
			slots[vi] = idx + 1
		} else {
			var ok bool
			if idx, ok = slotMap[vi]; ok {
				return idx, false
			}
			idx = int32(len(samples))
			slotMap[vi] = idx
		}
		samples = append(samples, 0)
		return idx, true
	}

	// Wavefront dedup: a dense flag per cube when the grid is moderate, a
	// map on the huge grids where a dense array would dwarf the band.
	nCells := lay.nx * lay.ny * lay.nz
	var vis []bool
	var visMap map[int]bool
	if nCells <= denseMax {
		vis = make([]bool, nCells)
	} else {
		visMap = make(map[int]bool)
	}
	var next []cell3
	enqueue := func(c cell3) {
		if c.i < 0 || c.j < 0 || c.k < 0 || c.i >= lay.nx || c.j >= lay.ny || c.k >= lay.nz {
			return
		}
		li := (c.k*lay.ny+c.j)*lay.nx + c.i
		if vis != nil {
			if vis[li] {
				return
			}
			vis[li] = true
		} else {
			if visMap[li] {
				return
			}
			visMap[li] = true
		}
		next = append(next, c)
	}
	ring := func(c cell3) {
		for dk := -1; dk <= 1; dk++ {
			for dj := -1; dj <= 1; dj++ {
				for di := -1; di <= 1; di++ {
					enqueue(cell3{c.i + di, c.j + dj, c.k + dk})
				}
			}
		}
	}

	s := newSlabMesh(lay)
	arena := polyArenaPool.Get().(*polyArena)
	clear(arena.shared)
	s.verts, s.faces, s.shared = arena.verts[:0], arena.faces[:0], arena.shared

	// Seed marching: snap each seed to its nearest lattice vertex and walk
	// the six axis directions until the field changes sign. Rays run
	// concurrently with per-ray result buffers; the merge walks rays in
	// index order, so the sample arena and the enqueue order are
	// worker-count invariant.
	rays := make([]seedRay, len(seeds)*6)
	par.For(workers, len(rays), func(r int) {
		ry := &rays[r]
		sd := seeds[r/6]
		dir := axisDirs[r%6]
		i := clampi(int(math.Round((sd.X-lay.origin.X)/lay.cell)), 0, lay.nx)
		j := clampi(int(math.Round((sd.Y-lay.origin.Y)/lay.cell)), 0, lay.ny)
		k := clampi(int(math.Round((sd.Z-lay.origin.Z)/lay.cell)), 0, lay.nz)
		eval := func(i, j, k int) float64 {
			v := f.Eval(s.latticePoint(i, j, k))
			ry.verts = append(ry.verts, cell3{i, j, k})
			ry.vals = append(ry.vals, v)
			return v
		}
		neg0 := eval(i, j, k) < 0
		// The start cell's ring covers seeds already on the surface (and
		// bones thinner than a cell, which may never produce a lattice
		// sign change along the ray).
		ry.cross = append(ry.cross, cell3{
			clampi(i, 0, lay.nx-1), clampi(j, 0, lay.ny-1), clampi(k, 0, lay.nz-1),
		})
		for step := 0; step < marchCap; step++ {
			ni, nj, nk := i+dir[0], j+dir[1], k+dir[2]
			if ni < 0 || nj < 0 || nk < 0 || ni > lay.nx || nj > lay.ny || nk > lay.nz {
				break
			}
			if (eval(ni, nj, nk) < 0) != neg0 {
				// The crossing lies on the edge between the two vertices;
				// ring-enqueue around the cell at the lower vertex of that
				// edge.
				li, lj, lk := i, j, k
				if dir[0] < 0 || dir[1] < 0 || dir[2] < 0 {
					li, lj, lk = ni, nj, nk
				}
				ry.cross = append(ry.cross, cell3{
					clampi(li, 0, lay.nx-1), clampi(lj, 0, lay.ny-1), clampi(lk, 0, lay.nz-1),
				})
				break
			}
			i, j, k = ni, nj, nk
		}
	})
	for r := range rays {
		ry := &rays[r]
		for n, v := range ry.verts {
			if idx, fresh := slot(v.i, v.j, v.k); fresh {
				samples[idx] = ry.vals[n]
			}
		}
		for _, c := range ry.cross {
			ring(c)
		}
	}

	// Discovery: flood-fill across sign-crossing cubes, batching field
	// evaluation per wavefront round. Cells are recorded, not yet
	// polygonized — the band is sorted first so traversal order cannot
	// leak into the output.
	var front, band []cell3
	var bandCorners, cornerIdx []int32
	var needPts []geom.Vec3
	for len(next) > 0 {
		front, next = next, front[:0]

		// Gather: one slot probe per cube corner assigns (or finds) the
		// corner's arena slot; the 8 slots per frontier cube are recorded
		// so the sign test below reads the arena directly. New vertices
		// take consecutive slots, so this round's samples are the arena's
		// tail, in needPts order.
		first := len(samples)
		needPts = needPts[:0]
		if cap(cornerIdx) < 8*len(front) {
			cornerIdx = make([]int32, 8*len(front))
		}
		cornerIdx = cornerIdx[:8*len(front)]
		for fi, c := range front {
			for ci, off := range cubeOffsets {
				i, j, k := c.i+off[0], c.j+off[1], c.k+off[2]
				idx, fresh := slot(i, j, k)
				if fresh {
					needPts = append(needPts, s.latticePoint(i, j, k))
				}
				cornerIdx[fi*8+ci] = idx
			}
		}
		// Each worker evaluates a contiguous chunk in one EvalBatch call.
		// Every sample is a pure function of its point, so neither the
		// chunk partition nor the worker count can affect the output.
		tail := samples[first:]
		par.ForChunks(workers, len(needPts), func(_, lo, hi int) {
			f.EvalBatch(needPts[lo:hi], tail[lo:hi])
		})

		for fi, c := range front {
			base := fi * 8
			anyNeg, anyPos := false, false
			for ci := 0; ci < 8; ci++ {
				if samples[cornerIdx[base+ci]] < 0 {
					anyNeg = true
				} else {
					anyPos = true
				}
			}
			if !anyNeg || !anyPos {
				continue
			}
			band = append(band, c)
			bandCorners = append(bandCorners, cornerIdx[base:base+8]...)
			// The surface continues into face neighbors.
			for _, d := range axisDirs {
				enqueue(cell3{c.i + d[0], c.j + d[1], c.k + d[2]})
			}
		}
	}

	// Polygonize in lattice scan order (z, then y, then x — the dense
	// extractor's cube order), making the mesh a pure function of the
	// band set and sample values. Each cell's recorded corner slots are
	// permuted along with it, so this loop is map-free.
	sort.Sort(bandOrder{band, bandCorners})
	for bi, c := range band {
		var vals [8]float64
		for ci := 0; ci < 8; ci++ {
			vals[ci] = samples[bandCorners[bi*8+ci]]
		}
		s.polygonizeCube(vals, c.i, c.j, c.k)
	}

	// Copy the surface out exact-size and hand the arena back.
	out := &Mesh{
		Vertices: make([]geom.Vec3, len(s.verts)),
		Faces:    make([]Face, len(s.faces)),
	}
	copy(out.Vertices, s.verts)
	copy(out.Faces, s.faces)
	arena.verts, arena.faces = s.verts, s.faces
	polyArenaPool.Put(arena)
	return out
}

// cell3 addresses a lattice cube (or vertex) in grid-local coordinates.
type cell3 struct{ i, j, k int }

// seedRay is the per-ray scratch of seed marching: the lattice vertices
// the ray sampled with their values, and the cells to ring-enqueue.
type seedRay struct {
	verts []cell3
	vals  []float64
	cross []cell3
}

// axis-aligned march/neighbor directions.
var axisDirs = [6][3]int{
	{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
}

// marchCap bounds seed-march length.
const marchCap = 1024

// bandOrder co-sorts the discovered band cells and their 8-per-cell
// corner arena slots into lattice scan order (z, then y, then x). Cells
// are unique, so the unstable sort still yields one deterministic order.
type bandOrder struct {
	cells   []cell3
	corners []int32
}

func (b bandOrder) Len() int { return len(b.cells) }
func (b bandOrder) Less(x, y int) bool {
	cx, cy := b.cells[x], b.cells[y]
	if cx.k != cy.k {
		return cx.k < cy.k
	}
	if cx.j != cy.j {
		return cx.j < cy.j
	}
	return cx.i < cy.i
}
func (b bandOrder) Swap(x, y int) {
	b.cells[x], b.cells[y] = b.cells[y], b.cells[x]
	cx, cy := b.corners[x*8:x*8+8], b.corners[y*8:y*8+8]
	for t := 0; t < 8; t++ {
		cx[t], cy[t] = cy[t], cx[t]
	}
}

func clampi(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
