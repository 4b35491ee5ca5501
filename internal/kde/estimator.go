package kde

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Options configure estimator construction.
type Options struct {
	// NumKernels is the number of kernel centers (ks in the paper).
	// The paper proposes 1000 as a practical default (§4.4); DefaultNumKernels
	// is applied when zero.
	NumKernels int

	// Kernel is the one-dimensional profile; Epanechnikov when nil,
	// matching the paper's experiments.
	Kernel Kernel

	// BandwidthScale multiplies the Scott's-rule bandwidth in every
	// dimension. 1.0 when zero.
	BandwidthScale float64

	// Ctx, when non-nil, cancels estimator construction: the build scan
	// checks it every few thousand points and a done context aborts with
	// dataset.ErrCanceled wrapping the context's error.
	Ctx context.Context

	// Obs, when non-nil, receives the build's span and pass counters.
	// The estimator is identical with or without it and keeps no
	// reference to it: a DensityBatch call counts into the Recorder it is
	// given.
	Obs *obs.Recorder

	// Progress, when non-nil, is called periodically during the
	// construction scan with (points seen, dataset size).
	Progress func(done, total int)
}

// DefaultNumKernels is the paper's recommended kernel count (§4.4:
// "Setting the number of kernels … = 1000 allows accurate estimation").
const DefaultNumKernels = 1000

// Estimator is a product-kernel density estimator scaled to integrate to
// the dataset size n: for a region R, ∫_R f ≈ |D ∩ R|.
//
// Evaluation cost is O(log ks + m·d) per point, where m is the number of
// centers whose support reaches the query point; a kd-tree over the
// centers prunes the rest.
type Estimator struct {
	kernel  Kernel
	centers []geom.Point
	h       []float64 // per-dimension bandwidth
	weight  float64   // mass per kernel = n/ks
	n       int       // dataset size represented
	dims    int
	tree    *kdtree.Tree
	reach   float64 // Euclidean radius covering the support box
	// boxReach is the per-dimension half-width of the support box
	// (sup·h_j). For kernels with true compact support the box test alone
	// decides membership, letting DensityBatch prune the center tree much
	// more tightly than the circumscribed ball `reach` allows.
	boxReach []float64
	invH     []float64
	// Flat evaluation slab, built for the Epanechnikov kernel only (the
	// paper's default and the only profile with a fused engine): the
	// kernel centers laid out in kd-tree leaf order, one contiguous
	// []float64, with every coordinate pre-scaled by the inverse
	// bandwidth — flat[k*dims+j] = c[j]·invH[j]. Leaf ranges reported by
	// the tree index the slab directly, so the hot loop walks sequential
	// memory with no per-center pointer chase and evaluates
	// u = q̂[j] − flat[…] in one subtraction (the query is pre-scaled once
	// per point). The per-dimension 0.75·invH normalization is hoisted
	// into coeffAll.
	flat     []float64
	coeffAll float64 // Π 0.75·invH
}

// Build constructs an estimator from one pass over ds: a reservoir of
// NumKernels centers and per-dimension running moments for the Scott's-rule
// bandwidths are collected in the same scan.
func Build(ds dataset.Dataset, opts Options, rng *stats.RNG) (*Estimator, error) {
	ks := opts.NumKernels
	if ks == 0 {
		ks = DefaultNumKernels
	}
	if ks < 1 {
		return nil, errors.New("kde: NumKernels must be positive")
	}
	kern := opts.Kernel
	if kern == nil {
		kern = Epanechnikov{}
	}
	scale := opts.BandwidthScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, errors.New("kde: negative BandwidthScale")
	}
	d := ds.Dims()

	span := opts.Obs.StartSpan("kde/build")
	defer span.End()

	// Single pass: reservoir sampling of centers + per-dim moments.
	centers := make([]geom.Point, 0, ks)
	mom := stats.NewMultiMoments(d)
	total := ds.Len()
	seen := 0
	err := dataset.Scan(ds, func(p geom.Point) error {
		mom.Add(p)
		seen++
		if seen%4096 == 0 && opts.Ctx != nil {
			if cerr := opts.Ctx.Err(); cerr != nil {
				return fmt.Errorf("%w: %w", dataset.ErrCanceled, cerr)
			}
		}
		if opts.Progress != nil && seen%8192 == 0 {
			opts.Progress(seen, total)
		}
		if len(centers) < ks {
			centers = append(centers, p.Clone())
			return nil
		}
		if j := rng.Intn(seen); j < ks {
			centers[j] = p.Clone()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if seen == 0 {
		return nil, errors.New("kde: empty dataset")
	}
	if opts.Progress != nil {
		opts.Progress(seen, total)
	}
	span.AddPoints(int64(seen))
	opts.Obs.Counter(obs.CtrDataPasses).Inc()
	opts.Obs.Counter(obs.CtrPointsScanned).Add(int64(seen))

	// Scott's rule on the center sample: h_j = σ_j · ks^(-1/(d+4)).
	h := make([]float64, d)
	factor := math.Pow(float64(len(centers)), -1/float64(d+4)) * scale
	for j := 0; j < d; j++ {
		sigma := mom.Dim(j).StdDev()
		if sigma == 0 {
			// Degenerate dimension: any positive width works; use a
			// sliver of the (possibly zero) range or an absolute floor.
			sigma = 1e-3
		}
		h[j] = sigma * factor
	}

	return newEstimator(kern, centers, h, seen), nil
}

// FromCenters builds an estimator directly from explicit centers and
// bandwidths, representing a dataset of size n. Tests and the grid baseline
// use it to construct estimators with known shapes.
func FromCenters(kern Kernel, centers []geom.Point, h []float64, n int) (*Estimator, error) {
	if kern == nil {
		kern = Epanechnikov{}
	}
	if len(centers) == 0 {
		return nil, errors.New("kde: no centers")
	}
	d := centers[0].Dims()
	if len(h) != d {
		return nil, fmt.Errorf("kde: %d bandwidths for %d dims", len(h), d)
	}
	for i, v := range h {
		if v <= 0 {
			return nil, fmt.Errorf("kde: non-positive bandwidth on dim %d", i)
		}
	}
	if n <= 0 {
		return nil, errors.New("kde: non-positive dataset size")
	}
	cc := make([]geom.Point, len(centers))
	for i, c := range centers {
		if c.Dims() != d {
			return nil, fmt.Errorf("kde: center %d has %d dims, want %d", i, c.Dims(), d)
		}
		cc[i] = c.Clone()
	}
	return newEstimator(kern, cc, append([]float64(nil), h...), n), nil
}

func newEstimator(kern Kernel, centers []geom.Point, h []float64, n int) *Estimator {
	d := len(h)
	sup := kern.Support()
	var reach2 float64
	invH := make([]float64, d)
	boxReach := make([]float64, d)
	for j, v := range h {
		r := sup * v
		reach2 += r * r
		boxReach[j] = r
		invH[j] = 1 / v
	}
	e := &Estimator{
		kernel:   kern,
		centers:  centers,
		h:        h,
		weight:   float64(n) / float64(len(centers)),
		n:        n,
		dims:     d,
		reach:    math.Sqrt(reach2),
		boxReach: boxReach,
		invH:     invH,
	}
	e.tree = kdtree.Build(centers)
	e.buildFlat()
	return e
}

// buildFlat materializes the flat evaluation slab (see the Estimator
// fields). It must run after the tree exists.
func (e *Estimator) buildFlat() {
	if _, ok := e.kernel.(Epanechnikov); !ok {
		return
	}
	m := len(e.centers)
	d := e.dims
	idx := e.tree.Indices(0, int32(m))
	e.flat = make([]float64, m*d)
	base := 1.0
	for _, ih := range e.invH {
		base *= 0.75 * ih
	}
	e.coeffAll = base
	for k, ci := range idx {
		c := e.centers[ci]
		for j := 0; j < d; j++ {
			e.flat[k*d+j] = c[j] * e.invH[j]
		}
	}
}

// Extend returns a new estimator over a dataset grown to n points: e's
// kernel set plus deltaCenters, with the per-kernel mass rescaled to
// n / (ks + len(deltaCenters)). The per-dimension Scott's-rule bandwidths
// are inherited from e — a deliberate approximation that keeps the extend
// O(ks' log ks') (only the kd-tree over the merged centers is rebuilt);
// the bandwidth drift this introduces is part of the drift budget the
// incremental sampler tracks (DESIGN.md §5e).
//
// e itself is unchanged — estimators are immutable once built, which is
// what lets the serving layer extend a cached artifact that concurrent
// requests are still reading. deltaCenters are cloned.
func (e *Estimator) Extend(deltaCenters []geom.Point, n int) (*Estimator, error) {
	if n <= 0 {
		return nil, errors.New("kde: non-positive dataset size")
	}
	merged := make([]geom.Point, 0, len(e.centers)+len(deltaCenters))
	merged = append(merged, e.centers...)
	for i, c := range deltaCenters {
		if c.Dims() != e.dims {
			return nil, fmt.Errorf("kde: delta center %d has %d dims, want %d", i, c.Dims(), e.dims)
		}
		if !c.IsFinite() {
			return nil, fmt.Errorf("kde: delta center %d has non-finite coordinates", i)
		}
		merged = append(merged, c.Clone())
	}
	return newEstimator(e.kernel, merged, append([]float64(nil), e.h...), n), nil
}

// ExtendDelta extends e over delta, the m points its dataset of N() points
// grew by, keeping the centers-per-point rate: it reservoir-samples
// round(ks·m/N()) centers from delta, clamped to [1, min(ks, m)] for ks
// kernels, in one pass over delta and none over the prefix, and returns
// Extend(centers, N()+m).
func (e *Estimator) ExtendDelta(delta dataset.Dataset, rng *stats.RNG) (*Estimator, error) {
	ks, m := len(e.centers), delta.Len()
	dk := int(math.Round(float64(ks) * float64(m) / float64(e.n)))
	centers, err := dataset.Reservoir(delta, min(max(dk, 1), ks, m), rng)
	if err != nil {
		return nil, err
	}
	return e.Extend(centers, e.n+m)
}

// N returns the dataset size the estimator represents (its total integral).
func (e *Estimator) N() int { return e.n }

// Dims returns the dimensionality.
func (e *Estimator) Dims() int { return e.dims }

// NumKernels returns the number of kernel centers.
func (e *Estimator) NumKernels() int { return len(e.centers) }

// Bandwidths returns the per-dimension bandwidths (caller must not mutate).
func (e *Estimator) Bandwidths() []float64 { return e.h }

// Kernel returns the one-dimensional kernel profile in use.
func (e *Estimator) Kernel() Kernel { return e.kernel }

// Density returns f(p), the estimated point density at p, scaled so that
// the integral of f over the whole space is the dataset size n.
func (e *Estimator) Density(p geom.Point) float64 {
	if p.Dims() != e.dims {
		panic("kde: query dimension mismatch")
	}
	var sum float64
	e.tree.WithinFunc(p, e.reach, func(ci int) {
		sum += e.kernelAt(ci, p)
	})
	return e.weight * sum
}

// kernelAt evaluates the unit-mass product kernel of center ci at point p.
func (e *Estimator) kernelAt(ci int, p geom.Point) float64 {
	c := e.centers[ci]
	v := 1.0
	inv := e.invH
	for j := 0; j < e.dims; j++ {
		u := (p[j] - c[j]) * inv[j]
		kv := e.kernel.Value(u)
		if kv == 0 {
			return 0
		}
		v *= kv * inv[j]
	}
	return v
}

// IntegrateBox returns ∫_box f exactly (up to float rounding), using the
// product-kernel CDF factorization: each kernel's mass inside an axis-
// aligned box is a product of one-dimensional CDF differences.
func (e *Estimator) IntegrateBox(box geom.Rect) float64 {
	if box.Dims() != e.dims {
		panic("kde: box dimension mismatch")
	}
	var sum float64
	for _, c := range e.centers {
		m := 1.0
		for j := 0; j < e.dims && m > 0; j++ {
			lo := (box.Min[j] - c[j]) * e.invH[j]
			hi := (box.Max[j] - c[j]) * e.invH[j]
			m *= e.kernel.CDF(hi) - e.kernel.CDF(lo)
		}
		sum += m
	}
	return e.weight * sum
}

// IntegrateBall returns an estimate of ∫_Ball(o,r) f — the expected number
// of dataset points within distance r of o (the quantity N'_D(O,k) of
// §3.2) — using deterministic quasi-Monte-Carlo quadrature over the ball.
func (e *Estimator) IntegrateBall(o geom.Point, r float64) float64 {
	if o.Dims() != e.dims {
		panic("kde: ball center dimension mismatch")
	}
	if r <= 0 {
		return 0
	}
	quad := ballQuadrature(e.dims)
	// Restrict evaluation to kernels that can reach the ball at all.
	near := e.tree.Within(o, e.reach+r)
	if len(near) == 0 {
		return 0
	}
	q := make(geom.Point, e.dims)
	var sum float64
	for _, u := range quad {
		for j := range q {
			q[j] = o[j] + r*u[j]
		}
		for _, ci := range near {
			sum += e.kernelAt(ci, q)
		}
	}
	mean := sum / float64(len(quad))
	return e.weight * mean * geom.UnitBallVolume(e.dims, r)
}

// Centers returns the kernel centers (caller must not mutate).
func (e *Estimator) Centers() []geom.Point { return e.centers }
