package mesh

import (
	"sync"

	"semholo/internal/geom"
	"semholo/internal/par"
)

// BatchField is a scalar field that can evaluate many lattice points in
// one call. EvalBatch fills out[i] with exactly what Eval(pts[i]) would
// return — bitwise, not approximately — so the extractors may freely
// substitute one for the other; batching exists purely so the field can
// amortize per-call setup (and, for the avatar SDF, share its spatial
// candidate pruning) across a whole chunk of points.
//
// Both methods must be safe for concurrent calls (the extractors
// evaluate from several workers), which pure functions of the input
// point satisfy trivially; out must have the same length as pts.
type BatchField interface {
	Eval(p geom.Vec3) float64
	EvalBatch(pts []geom.Vec3, out []float64)
}

// planeBufPool recycles the per-plane point buffers the batched dense
// extractor gathers lattice planes into.
var planeBufPool sync.Pool

type planeBuf struct{ pts []geom.Vec3 }

func getPlaneBuf(n int) *planeBuf {
	if v := planeBufPool.Get(); v != nil {
		if b := v.(*planeBuf); cap(b.pts) >= n {
			b.pts = b.pts[:n]
			return b
		}
	}
	return &planeBuf{pts: make([]geom.Vec3, n)}
}

func putPlaneBuf(b *planeBuf) { planeBufPool.Put(b) }

// ExtractIsosurfaceBatch is ExtractIsosurfaceParallel with lattice planes
// evaluated through the field's batch entry point instead of one Eval
// call per point. Because EvalBatch promises bitwise-identical samples,
// the output mesh is byte-identical to the scalar path at every worker
// count; only the evaluation cost changes.
func ExtractIsosurfaceBatch(field BatchField, grid GridSpec, workers int) *Mesh {
	lay, ok := grid.layout()
	if !ok {
		return &Mesh{}
	}
	ranges := par.Split(workers, lay.nz)
	slabs := make([]*slabMesh, len(ranges))
	par.For(len(ranges), len(ranges), func(c int) {
		slabs[c] = extractSlabRangeBatch(field, lay, ranges[c].Lo, ranges[c].Hi)
	})
	if len(slabs) == 1 {
		return slabs[0].mesh()
	}
	return mergeSlabs(slabs)
}

// extractSlabRangeBatch polygonizes cubes with k in [k0, k1), sampling
// each lattice plane with one EvalBatch call. The cube scan and
// polygonization are shared verbatim with the scalar slab path.
func extractSlabRangeBatch(field BatchField, lay gridLayout, k0, k1 int) *slabMesh {
	nx, ny, vx, vy := lay.nx, lay.ny, lay.vx, lay.vy
	s := newSlabMesh(lay)
	cur := getSlabBuf(vx * vy)
	next := getSlabBuf(vx * vy)
	defer putSlabBuf(cur)
	defer putSlabBuf(next)
	pb := getPlaneBuf(vx * vy)
	defer putPlaneBuf(pb)

	sampleSlab := func(k int, dst []float64) {
		for j := 0; j < vy; j++ {
			for i := 0; i < vx; i++ {
				pb.pts[j*vx+i] = s.latticePoint(i, j, k)
			}
		}
		field.EvalBatch(pb.pts, dst)
	}
	sampleSlab(k0, cur)
	for k := k0; k < k1; k++ {
		sampleSlab(k+1, next)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				var vals [8]float64
				anyNeg, anyPos := false, false
				for c, off := range cubeOffsets {
					var v float64
					if off[2] == 0 {
						v = cur[(j+off[1])*vx+i+off[0]]
					} else {
						v = next[(j+off[1])*vx+i+off[0]]
					}
					vals[c] = v
					if v < 0 {
						anyNeg = true
					} else {
						anyPos = true
					}
				}
				if !anyNeg || !anyPos {
					continue
				}
				s.polygonizeCube(vals, i, j, k)
			}
		}
		cur, next = next, cur
	}
	return s
}
