// Package kdtree implements a static k-d tree over d-dimensional points
// with nearest-neighbour, k-nearest-neighbour, and ball (range) queries.
//
// The tree is the spatial index behind three subsystems: the exact
// distance-based outlier baseline (counting neighbours within radius k,
// §3.2), the CURE assignment phase (labelling every dataset point with its
// nearest representative), and the evaluation metrics. It is built once
// over a static point set; the mining algorithms never mutate it.
package kdtree

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/geom"
)

// Tree is an immutable k-d tree. The zero value is not usable; construct
// with Build.
type Tree struct {
	pts   []geom.Point
	idx   []int32 // permutation of point indices, partitioned by the nodes
	nodes []node
	dims  int
	// lo/hi hold the per-node bounding boxes (node ni's box spans
	// lo[ni*dims+j] .. hi[ni*dims+j]). They are captured from the same
	// coordinate sweep build uses to pick split dimensions, and let the
	// box queries prune on the points a subtree actually contains rather
	// than on the half-space its split plane carves out.
	lo, hi []float64
}

type node struct {
	// Leaf nodes store start/end into idx; internal nodes additionally
	// store the split dimension/value and children.
	start, end  int32
	split       int32 // -1 for leaf
	splitVal    float64
	left, right int32
}

const leafSize = 16

// Build constructs a tree over pts. The slice is retained (not copied);
// callers must not mutate the points afterwards. Build panics on an empty
// input or inconsistent dimensions.
func Build(pts []geom.Point) *Tree {
	if len(pts) == 0 {
		panic("kdtree: Build on empty point set")
	}
	d := pts[0].Dims()
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
		if pts[i].Dims() != d {
			panic("kdtree: inconsistent dimensions")
		}
	}
	t := &Tree{pts: pts, idx: idx, dims: d}
	t.build(0, int32(len(pts)))
	return t
}

// build recursively partitions idx[start:end) and returns the node index.
func (t *Tree) build(start, end int32) int32 {
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{start: start, end: end, split: -1})
	// One sweep computes the node's bounding box (kept for every node,
	// leaves included) and the dimension with the largest spread.
	bestDim, bestSpread := 0, -1.0
	for dim := 0; dim < t.dims; dim++ {
		lo, hi := t.pts[t.idx[start]][dim], t.pts[t.idx[start]][dim]
		for _, i := range t.idx[start:end] {
			v := t.pts[i][dim]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		t.lo = append(t.lo, lo)
		t.hi = append(t.hi, hi)
		if s := hi - lo; s > bestSpread {
			bestSpread, bestDim = s, dim
		}
	}
	if end-start <= leafSize {
		return ni
	}
	if bestSpread == 0 {
		// All points identical: keep as a (possibly large) leaf.
		return ni
	}
	// Median split on the chosen dimension.
	sub := t.idx[start:end]
	mid := len(sub) / 2
	sort.Slice(sub, func(a, b int) bool {
		return t.pts[sub[a]][bestDim] < t.pts[sub[b]][bestDim]
	})
	// Move mid forward past duplicates of the median value so the right
	// child strictly exceeds splitVal, guaranteeing both sides non-empty.
	splitVal := t.pts[sub[mid]][bestDim]
	for mid < len(sub)-1 && t.pts[sub[mid]][bestDim] == splitVal {
		mid++
	}
	// Capture the boundary value now: child builds re-sort their subranges
	// by their own split dimensions, invalidating sub's order.
	boundary := t.pts[sub[mid-1]][bestDim]
	left := t.build(start, start+int32(mid))
	right := t.build(start+int32(mid), end)
	n := &t.nodes[ni]
	n.split = int32(bestDim)
	n.splitVal = boundary
	n.left, n.right = left, right
	return ni
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// Dims returns the dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Point returns the indexed point with the given original index.
func (t *Tree) Point(i int) geom.Point { return t.pts[i] }

// Nearest returns the index of the point closest to q (Euclidean) and the
// distance to it. When q coincides with an indexed point, that point wins.
func (t *Tree) Nearest(q geom.Point) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	t.nearest(0, q, &best, &bestD2)
	return best, sqrt(bestD2)
}

func (t *Tree) nearest(ni int32, q geom.Point, best *int, bestD2 *float64) {
	n := &t.nodes[ni]
	if n.split < 0 {
		for _, i := range t.idx[n.start:n.end] {
			if d2 := geom.SquaredDistance(q, t.pts[i]); d2 < *bestD2 {
				*bestD2, *best = d2, int(i)
			}
		}
		return
	}
	diff := q[n.split] - n.splitVal
	first, second := n.left, n.right
	if diff > 0 {
		first, second = n.right, n.left
	}
	t.nearest(first, q, best, bestD2)
	if diff*diff < *bestD2 {
		t.nearest(second, q, best, bestD2)
	}
}

// Neighbor is one result of a KNN query.
type Neighbor struct {
	Index int
	Dist  float64
}

// maxHeap over squared distances.
type knnHeap []Neighbor

func (h knnHeap) Len() int            { return len(h) }
func (h knnHeap) Less(i, j int) bool  { return h[i].Dist > h[j].Dist }
func (h knnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *knnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNN returns the k nearest points to q ordered by increasing distance.
// Fewer than k results are returned when the tree is smaller than k.
func (t *Tree) KNN(q geom.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	h := make(knnHeap, 0, k+1)
	t.knn(0, q, k, &h)
	// Heap holds squared distances, largest first; convert and reverse.
	out := make([]Neighbor, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		nb := heap.Pop(&h).(Neighbor)
		out[i] = Neighbor{Index: nb.Index, Dist: sqrt(nb.Dist)}
	}
	return out
}

func (t *Tree) knn(ni int32, q geom.Point, k int, h *knnHeap) {
	n := &t.nodes[ni]
	if n.split < 0 {
		for _, i := range t.idx[n.start:n.end] {
			d2 := geom.SquaredDistance(q, t.pts[i])
			if len(*h) < k {
				heap.Push(h, Neighbor{Index: int(i), Dist: d2})
			} else if d2 < (*h)[0].Dist {
				(*h)[0] = Neighbor{Index: int(i), Dist: d2}
				heap.Fix(h, 0)
			}
		}
		return
	}
	diff := q[n.split] - n.splitVal
	first, second := n.left, n.right
	if diff > 0 {
		first, second = n.right, n.left
	}
	t.knn(first, q, k, h)
	if len(*h) < k || diff*diff < (*h)[0].Dist {
		t.knn(second, q, k, h)
	}
}

// CountWithin returns |{p : dist(p, q) ≤ r}| over the indexed points.
// With limit > 0 the search aborts once the count exceeds limit and returns
// limit+1; the outlier detector uses this to stop counting neighbours as
// soon as a point is disqualified (more than p neighbours, §3.2).
func (t *Tree) CountWithin(q geom.Point, r float64, limit int) int {
	r2 := r * r
	count := 0
	t.countWithin(0, q, r, r2, limit, &count)
	return count
}

func (t *Tree) countWithin(ni int32, q geom.Point, r, r2 float64, limit int, count *int) {
	if limit > 0 && *count > limit {
		return
	}
	n := &t.nodes[ni]
	if n.split < 0 {
		for _, i := range t.idx[n.start:n.end] {
			if geom.SquaredDistance(q, t.pts[i]) <= r2 {
				*count++
				if limit > 0 && *count > limit {
					return
				}
			}
		}
		return
	}
	diff := q[n.split] - n.splitVal
	first, second := n.left, n.right
	if diff > 0 {
		first, second = n.right, n.left
	}
	t.countWithin(first, q, r, r2, limit, count)
	if diff*diff <= r2 {
		t.countWithin(second, q, r, r2, limit, count)
	}
}

// Within returns the indices of all points at distance ≤ r from q.
func (t *Tree) Within(q geom.Point, r float64) []int {
	var out []int
	r2 := r * r
	t.within(0, q, r2, &out)
	return out
}

// WithinFunc invokes fn for every point at distance ≤ r from q, without
// allocating a result slice — the hot path for density evaluation, which
// runs once per dataset point per pass.
func (t *Tree) WithinFunc(q geom.Point, r float64, fn func(i int)) {
	t.withinFunc(0, q, r*r, fn)
}

func (t *Tree) withinFunc(ni int32, q geom.Point, r2 float64, fn func(i int)) {
	n := &t.nodes[ni]
	if n.split < 0 {
		for _, i := range t.idx[n.start:n.end] {
			if geom.SquaredDistance(q, t.pts[i]) <= r2 {
				fn(int(i))
			}
		}
		return
	}
	diff := q[n.split] - n.splitVal
	first, second := n.left, n.right
	if diff > 0 {
		first, second = n.right, n.left
	}
	t.withinFunc(first, q, r2, fn)
	if diff*diff <= r2 {
		t.withinFunc(second, q, r2, fn)
	}
}

// WithinAppend appends the indices of all points at distance ≤ r from q
// onto buf and returns it, together with the (possibly grown) node stack it
// traversed with. Unlike Within/WithinFunc it is iterative and reuses both
// slices across calls, so a batch of queries performs no per-query
// allocations and no per-result closure calls — the shape DensityBatch
// needs when it evaluates a whole block of points against the kernel
// centers. Visit order differs from Within's recursion; callers reducing
// floating-point contributions must not rely on a particular order being
// shared between the two APIs. The traversal is counted into st (which
// must be non-nil): every node popped is visited, and every far child the
// ball test skips is pruned.
func (t *Tree) WithinAppend(q geom.Point, r float64, buf []int32, stack []int32, st *Stats) ([]int32, []int32) {
	r2 := r * r
	var visited, pruned int64
	stack = append(stack[:0], 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		n := &t.nodes[ni]
		if n.split < 0 {
			for _, i := range t.idx[n.start:n.end] {
				if geom.SquaredDistance(q, t.pts[i]) <= r2 {
					buf = append(buf, i)
				}
			}
			continue
		}
		diff := q[n.split] - n.splitVal
		near, far := n.left, n.right
		if diff > 0 {
			near, far = n.right, n.left
		}
		if diff*diff <= r2 {
			stack = append(stack, far)
		} else {
			pruned++
		}
		stack = append(stack, near)
	}
	st.Visited += visited
	st.Pruned += pruned
	return buf, stack
}

// AppendBoxLeaves appends the [start, end) index ranges (two int32 per
// leaf) of every leaf whose bounding box intersects the axis-aligned box
// q ± radii. Points inside a reported leaf are NOT filtered — callers
// that need exact membership must test each point — which is exactly
// right for product kernels with compact support: the kernel itself
// vanishes outside the box, so evaluating a whole leaf is both correct
// and branch-free. Pruning tests each subtree's own bounding box (the
// points it actually holds), which is strictly tighter than both the
// circumscribed-ball pruning of WithinAppend and a split-plane test: a
// subtree far from the box along any dimension is skipped whole, and
// every leaf it would have reported contributes an exact zero to a
// compact-kernel sum — so tightening the prune never changes the sum.
// Both slices are reused across calls; pass the previous returns.
// Resolve a reported range to center indices with Indices. The traversal
// is counted into st (which must be non-nil): every node popped is
// visited, and every node whose box misses the query box is pruned.
// Every expanded node pushes both children, so only expansions are
// counted in the loop and the totals are derived from them (see add).
func (t *Tree) AppendBoxLeaves(q geom.Point, radii []float64, leaves, stack []int32, st *Stats) ([]int32, []int32) {
	var expanded int64
	leaves0 := len(leaves)
	stack = append(stack[:0], 0)
	d := t.dims
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bb := int(ni) * d
		outside := false
		for j := 0; j < d; j++ {
			c, r := q[j], radii[j]
			if t.lo[bb+j] > c+r || t.hi[bb+j] < c-r {
				outside = true
				break
			}
		}
		if outside {
			continue
		}
		n := &t.nodes[ni]
		if n.split < 0 {
			leaves = append(leaves, n.start, n.end)
			continue
		}
		expanded++
		near, far := n.left, n.right
		if q[n.split]-n.splitVal > 0 {
			near, far = n.right, n.left
		}
		stack = append(stack, far, near)
	}
	st.add(expanded, len(leaves)-leaves0)
	return leaves, stack
}

// BoxLeaves is AppendBoxLeaves with the query box given by its corners
// (qlo[j] = q[j]-radii[j], qhi[j] = q[j]+radii[j]), precomputed once by
// the caller instead of re-derived per node — the shape the batch density
// evaluator wants, where one query box is tested against many node boxes.
// Leaf order is deterministic (depth-first, left child first); it differs
// from AppendBoxLeaves' near-first order, so the two enumerate the same
// leaves but not necessarily in the same sequence. Counting into st is as
// for AppendBoxLeaves, and the two report the same totals.
func (t *Tree) BoxLeaves(qlo, qhi []float64, leaves, stack []int32, st *Stats) ([]int32, []int32) {
	var expanded int64
	leaves0 := len(leaves)
	d := t.dims
	lo, hi := t.lo, t.hi
	stack = append(stack[:0], 0)
	if d == 4 {
		// Keep the query corners in registers: the overlap test dominates
		// traversal cost and the specialization drops the inner loop and
		// its per-element bounds checks. Same test, same visit order.
		l0, l1, l2, l3 := qlo[0], qlo[1], qlo[2], qlo[3]
		h0, h1, h2, h3 := qhi[0], qhi[1], qhi[2], qhi[3]
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bb := int(ni) * 4
			b := lo[bb : bb+4 : bb+4]
			c := hi[bb : bb+4 : bb+4]
			if b[0] > h0 || c[0] < l0 || b[1] > h1 || c[1] < l1 ||
				b[2] > h2 || c[2] < l2 || b[3] > h3 || c[3] < l3 {
				continue
			}
			n := &t.nodes[ni]
			if n.split < 0 {
				leaves = append(leaves, n.start, n.end)
				continue
			}
			expanded++
			stack = append(stack, n.right, n.left)
		}
	} else {
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bb := int(ni) * d
			outside := false
			for j := 0; j < d; j++ {
				if lo[bb+j] > qhi[j] || hi[bb+j] < qlo[j] {
					outside = true
					break
				}
			}
			if outside {
				continue
			}
			n := &t.nodes[ni]
			if n.split < 0 {
				leaves = append(leaves, n.start, n.end)
				continue
			}
			expanded++
			stack = append(stack, n.right, n.left)
		}
	}
	st.add(expanded, len(leaves)-leaves0)
	return leaves, stack
}

// Indices returns the point indices of a leaf range reported by
// AppendBoxLeaves. The slice aliases internal storage; callers must not
// mutate it.
func (t *Tree) Indices(start, end int32) []int32 { return t.idx[start:end] }

// Stats accumulates traversal work counts for the observability layer:
// Visited is the number of tree nodes examined, Pruned the number of
// subtrees the prune test skipped entirely. The traversals tally into
// locals and add to a Stats once per query.
type Stats struct {
	Visited int64
	Pruned  int64
}

// add records one box traversal from its expansion count and the number
// of int32s it appended to the leaf list (two per reported leaf). The box
// traversals push both children of every node they expand, so they visit
// the root plus two nodes per expansion, and every visited node that was
// neither expanded nor reported as a leaf was pruned.
func (st *Stats) add(expanded int64, leafInts int) {
	visited := 1 + 2*expanded
	st.Visited += visited
	st.Pruned += visited - expanded - int64(leafInts/2)
}

func (t *Tree) within(ni int32, q geom.Point, r2 float64, out *[]int) {
	n := &t.nodes[ni]
	if n.split < 0 {
		for _, i := range t.idx[n.start:n.end] {
			if geom.SquaredDistance(q, t.pts[i]) <= r2 {
				*out = append(*out, int(i))
			}
		}
		return
	}
	diff := q[n.split] - n.splitVal
	first, second := n.left, n.right
	if diff > 0 {
		first, second = n.right, n.left
	}
	t.within(first, q, r2, out)
	if diff*diff <= r2 {
		t.within(second, q, r2, out)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
