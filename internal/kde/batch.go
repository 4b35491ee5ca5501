package kde

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

// evalScratch is the reusable per-batch evaluation state: the staged
// batch coordinates, the pre-scaled query, the query box corners, and the
// kd-tree traversal slices. Batches borrow one from a package pool, so
// steady-state density evaluation performs no per-block allocations.
type evalScratch struct {
	rows   []float64 // the batch's points, row-major and contiguous
	qs     []float64 // query pre-scaled by invH
	qlo    []float64 // query box corner q - boxReach
	qhi    []float64 // query box corner q + boxReach
	leaves []int32
	stack  []int32
}

var evalScratchPool = sync.Pool{New: func() interface{} { return new(evalScratch) }}

func getEvalScratch(d int) *evalScratch {
	sc := evalScratchPool.Get().(*evalScratch)
	if cap(sc.qs) < d {
		sc.qs = make([]float64, d)
		sc.qlo = make([]float64, d)
		sc.qhi = make([]float64, d)
	}
	sc.qs, sc.qlo, sc.qhi = sc.qs[:d], sc.qlo[:d], sc.qhi[:d]
	return sc
}

// DensityBatch evaluates the density at every point of pts into
// out[:len(pts)], equivalent to calling Density per point but built for
// the block-scan hot path. For the Epanechnikov kernel — the paper's
// default — evaluation runs on the flat slab layout (see the Estimator
// fields): the center tree is pruned with per-node bounding boxes, leaf
// ranges index a tree-ordered pre-scaled center slab directly, and the
// product kernel is evaluated with one subtraction per dimension. Other
// kernels keep the per-center path (box-pruned for compact supports, the
// truncation ball for Gaussian).
//
// Traversal work (candidate kernel evaluations, kd-tree nodes visited and
// pruned) is always tallied into batch-local counts and flushed once per
// batch through the Recorder's counter handles, which are no-ops when no
// Recorder is attached. Counting never touches density values.
//
// All scratch is pooled, so concurrent calls on the same Estimator (one
// per scan block) are safe and allocation-free in steady state. Results
// are a pure function of the inputs — identical for any batching or
// concurrency. Floating-point visit order differs from Density's recursive
// traversal, so the per-point and batch paths agree to rounding, not
// bit-for-bit.
func (e *Estimator) DensityBatch(pts []geom.Point, out []float64) {
	if len(out) < len(pts) {
		panic("kde: DensityBatch output shorter than input")
	}
	d := e.dims
	sc := getEvalScratch(d)
	defer evalScratchPool.Put(sc)
	// Stage the batch into one contiguous slab first. The copies are
	// independent loads that overlap in flight; reading each point inside
	// the traversal loop instead stalls on a cache miss per point when a
	// dataset's points are scattered in memory (a shuffled one, say).
	if cap(sc.rows) < len(pts)*d {
		sc.rows = make([]float64, len(pts)*d)
	}
	rows := sc.rows[:len(pts)*d]
	for i, p := range pts {
		if p.Dims() != d {
			panic("kde: query dimension mismatch")
		}
		r := rows[i*d : (i+1)*d : (i+1)*d]
		for j := range r {
			r[j] = p[j]
		}
	}
	var st kdtree.Stats
	var evals int64
	for i := range pts {
		out[i] = e.evalPoint(geom.Point(rows[i*d:(i+1)*d:(i+1)*d]), sc, &st, &evals)
	}
	e.cKernelEvals.Add(evals)
	e.cKDVisited.Add(st.Visited)
	e.cKDPruned.Add(st.Pruned)
}

// evalPoint returns the density at p using the batch evaluation layout,
// adding its traversal work to st and its candidate kernel evaluations to
// evals.
func (e *Estimator) evalPoint(p geom.Point, sc *evalScratch, st *kdtree.Stats, evals *int64) float64 {
	if e.flat != nil {
		d := e.dims
		for j := 0; j < d; j++ {
			sc.qs[j] = p[j] * e.invH[j]
			sc.qlo[j] = p[j] - e.boxReach[j]
			sc.qhi[j] = p[j] + e.boxReach[j]
		}
		sc.leaves, sc.stack = e.tree.BoxLeaves(sc.qlo, sc.qhi, sc.leaves[:0], sc.stack, st)
		var n int32
		for l := 0; l < len(sc.leaves); l += 2 {
			n += sc.leaves[l+1] - sc.leaves[l]
		}
		*evals += int64(n)
		return e.weight * e.flatSum(sc.leaves, sc.qs)
	}
	if isCompact(e.kernel) {
		sc.leaves, sc.stack = e.tree.AppendBoxLeaves(p, e.boxReach, sc.leaves[:0], sc.stack, st)
		var sum float64
		for l := 0; l < len(sc.leaves); l += 2 {
			idx := e.tree.Indices(sc.leaves[l], sc.leaves[l+1])
			*evals += int64(len(idx))
			for _, ci := range idx {
				sum += e.kernelAt(int(ci), p)
			}
		}
		return e.weight * sum
	}
	// Unbounded support (Gaussian): the Euclidean cutoff at e.reach is part
	// of the estimate's definition, so it must filter exactly as Density does.
	sc.leaves, sc.stack = e.tree.WithinAppend(p, e.reach, sc.leaves[:0], sc.stack, st)
	*evals += int64(len(sc.leaves))
	var sum float64
	for _, ci := range sc.leaves {
		sum += e.kernelAt(int(ci), p)
	}
	return e.weight * sum
}

// isCompact reports whether the kernel's support is the box [-1, 1].
func isCompact(k Kernel) bool {
	switch k.(type) {
	case Epanechnikov, Biweight, Triangular, Uniform:
		return true
	}
	return false
}

// flatSum accumulates the unnormalized Epanechnikov product-kernel values
// of the centers in the given leaf ranges at the pre-scaled query qs
// (qs[j] = p[j]·invH[j]). Leaf ranges index the flat slab directly — the
// tree-order layout means no index gather — and each dimension costs one
// subtraction, one multiply, and one fused range test. The dims==4
// specialization keeps the whole query in registers; its arithmetic is
// associativity-identical to the generic loop, so the two return the same
// bits and the specialization is purely a scheduling win.
func (e *Estimator) flatSum(leaves []int32, qs []float64) float64 {
	d := e.dims
	flat := e.flat
	var sum float64
	if d == 4 {
		q0, q1, q2, q3 := qs[0], qs[1], qs[2], qs[3]
		for l := 0; l < len(leaves); l += 2 {
			for k, end := 4*int(leaves[l]), 4*int(leaves[l+1]); k < end; k += 4 {
				u0 := q0 - flat[k]
				u1 := q1 - flat[k+1]
				u2 := q2 - flat[k+2]
				u3 := q3 - flat[k+3]
				if u0 < -1 || u0 > 1 || u1 < -1 || u1 > 1 ||
					u2 < -1 || u2 > 1 || u3 < -1 || u3 > 1 {
					continue
				}
				sum += (1 - u0*u0) * (1 - u1*u1) * (1 - u2*u2) * (1 - u3*u3)
			}
		}
		return sum * e.coeffAll
	}
	for l := 0; l < len(leaves); l += 2 {
		for k := int(leaves[l]); k < int(leaves[l+1]); k++ {
			c := flat[k*d : k*d+d]
			v := 1.0
			ok := true
			for j, cv := range c {
				u := qs[j] - cv
				if u < -1 || u > 1 {
					ok = false
					break
				}
				v *= 1 - u*u
			}
			if ok {
				sum += v
			}
		}
	}
	return sum * e.coeffAll
}
