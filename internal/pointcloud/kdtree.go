package pointcloud

import (
	"container/heap"
	"sort"

	"semholo/internal/geom"
)

// KDTree is a static 3-dimensional k-d tree over a fixed set of points,
// supporting nearest-neighbor, k-nearest, and radius queries. It backs
// normal estimation, outlier filtering, and the chamfer/Hausdorff quality
// metrics used to regenerate Figure 2.
type KDTree struct {
	pts   []geom.Vec3
	idx   []int // permutation of point indices in tree order
	nodes []kdNode
}

type kdNode struct {
	axis        int8 // 0,1,2, or -1 for leaf
	split       float64
	left, right int32 // node indices, -1 when absent
	start, end  int32 // leaf range into idx
}

const kdLeafSize = 16

// NewKDTree builds a tree over pts. The slice is referenced, not copied;
// it must not be mutated while the tree is in use.
func NewKDTree(pts []geom.Vec3) *KDTree {
	t := &KDTree{pts: pts, idx: make([]int, len(pts))}
	for i := range t.idx {
		t.idx[i] = i
	}
	if len(pts) > 0 {
		t.build(0, len(pts))
	}
	return t
}

func (t *KDTree) build(start, end int) int32 {
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{left: -1, right: -1})
	if end-start <= kdLeafSize {
		t.nodes[node] = kdNode{axis: -1, left: -1, right: -1, start: int32(start), end: int32(end)}
		return node
	}
	// Split along the widest axis at the median.
	b := geom.EmptyAABB()
	for _, i := range t.idx[start:end] {
		b = b.Extend(t.pts[i])
	}
	size := b.Size()
	axis := 0
	if size.Y > size.X && size.Y >= size.Z {
		axis = 1
	} else if size.Z > size.X && size.Z > size.Y {
		axis = 2
	}
	comp := func(p geom.Vec3) float64 {
		switch axis {
		case 0:
			return p.X
		case 1:
			return p.Y
		default:
			return p.Z
		}
	}
	sub := t.idx[start:end]
	sort.Slice(sub, func(a, b int) bool { return comp(t.pts[sub[a]]) < comp(t.pts[sub[b]]) })
	mid := (start + end) / 2
	split := comp(t.pts[t.idx[mid]])
	left := t.build(start, mid)
	right := t.build(mid, end)
	t.nodes[node] = kdNode{axis: int8(axis), split: split, left: left, right: right}
	return node
}

// Neighbor is a query result: the index of a point and its squared
// distance from the query.
type Neighbor struct {
	Index  int
	DistSq float64
}

// Nearest returns the nearest point to q, or ok=false for an empty tree.
func (t *KDTree) Nearest(q geom.Vec3) (Neighbor, bool) {
	if len(t.pts) == 0 {
		return Neighbor{}, false
	}
	best := Neighbor{Index: -1, DistSq: 1e308}
	t.nearest(0, q, &best)
	return best, true
}

func axisCoord(p geom.Vec3, axis int8) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	default:
		return p.Z
	}
}

func (t *KDTree) nearest(node int32, q geom.Vec3, best *Neighbor) {
	n := &t.nodes[node]
	if n.axis < 0 {
		for _, i := range t.idx[n.start:n.end] {
			if d := t.pts[i].DistSq(q); d < best.DistSq {
				*best = Neighbor{Index: i, DistSq: d}
			}
		}
		return
	}
	d := axisCoord(q, n.axis) - n.split
	first, second := n.left, n.right
	if d > 0 {
		first, second = second, first
	}
	t.nearest(first, q, best)
	if d*d < best.DistSq {
		t.nearest(second, q, best)
	}
}

// neighborHeap is a max-heap on DistSq, so the worst current neighbor is
// on top and can be evicted.
type neighborHeap []Neighbor

func (h neighborHeap) Len() int            { return len(h) }
func (h neighborHeap) Less(i, j int) bool  { return h[i].DistSq > h[j].DistSq }
func (h neighborHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *neighborHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNearest returns up to k nearest neighbors of q, ordered nearest first.
func (t *KDTree) KNearest(q geom.Vec3, k int) []Neighbor {
	if len(t.pts) == 0 || k <= 0 {
		return nil
	}
	h := make(neighborHeap, 0, k+1)
	t.kNearest(0, q, k, &h)
	res := make([]Neighbor, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		res[i] = heap.Pop(&h).(Neighbor)
	}
	return res
}

func (t *KDTree) kNearest(node int32, q geom.Vec3, k int, h *neighborHeap) {
	n := &t.nodes[node]
	if n.axis < 0 {
		for _, i := range t.idx[n.start:n.end] {
			d := t.pts[i].DistSq(q)
			if len(*h) < k {
				heap.Push(h, Neighbor{Index: i, DistSq: d})
			} else if d < (*h)[0].DistSq {
				(*h)[0] = Neighbor{Index: i, DistSq: d}
				heap.Fix(h, 0)
			}
		}
		return
	}
	d := axisCoord(q, n.axis) - n.split
	first, second := n.left, n.right
	if d > 0 {
		first, second = second, first
	}
	t.kNearest(first, q, k, h)
	if len(*h) < k || d*d < (*h)[0].DistSq {
		t.kNearest(second, q, k, h)
	}
}
