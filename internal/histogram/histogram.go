// Package histogram implements a multi-dimensional equi-width histogram
// density estimator — one of the alternative density summaries §2.1 lists
// ("computing multi-dimensional histograms [23][6][16][2]"). It satisfies
// the same estimator contract as the kernel estimator, so it can be
// plugged into internal/core's sampler directly; the ablation-estimator
// experiment compares the two (kernels win on accuracy, as the paper's
// §2.1 argument predicts, but the histogram remains a valid choice because
// the sampler is decoupled from the estimator).
package histogram

import (
	"errors"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// binsPerDim is the number of equal-width bins along each dimension.
const binsPerDim = 32

// Histogram is a dense equi-width multi-dimensional histogram over a known
// domain, scaled so the integral of Density over the domain is the dataset
// size.
type Histogram struct {
	domain geom.Rect
	d      int
	counts []int32
	volume float64 // volume of one cell
	n      int
}

// Build scans ds once and returns the histogram over the given domain.
// Points outside the domain clamp into the boundary bins. Total storage is
// binsPerDim^d counters, so the dense layout suits low dimensionality
// (d ≤ 5 or so); higher dimensions should use kernels or the hash grid.
func Build(ds dataset.Dataset, domain geom.Rect) (*Histogram, error) {
	if ds.Len() == 0 {
		return nil, errors.New("histogram: empty dataset")
	}
	d := ds.Dims()
	if domain.Dims() != d {
		return nil, errors.New("histogram: domain dimensionality mismatch")
	}
	cells := 1
	for j := 0; j < d; j++ {
		if cells > 1<<28/binsPerDim {
			return nil, errors.New("histogram: bins^dims too large; use the kde or gridsample estimators")
		}
		cells *= binsPerDim
	}
	h := &Histogram{
		domain: domain.Clone(),
		d:      d,
		counts: make([]int32, cells),
	}
	h.volume = domain.Volume() / float64(cells)
	if h.volume <= 0 {
		return nil, errors.New("histogram: degenerate domain")
	}
	err := ds.Scan(func(p geom.Point) error {
		h.counts[h.index(p)]++
		h.n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// index maps a point to its flat bin index, clamping out-of-domain
// coordinates.
func (h *Histogram) index(p geom.Point) int {
	idx := 0
	for j := 0; j < h.d; j++ {
		side := h.domain.Side(j)
		var c int
		if side > 0 {
			c = int(binsPerDim * (p[j] - h.domain.Min[j]) / side)
		}
		if c < 0 {
			c = 0
		}
		if c >= binsPerDim {
			c = binsPerDim - 1
		}
		idx = idx*binsPerDim + c
	}
	return idx
}

// Density returns the histogram density at p: bin count divided by bin
// volume. The integral over the domain equals the number of points seen.
func (h *Histogram) Density(p geom.Point) float64 {
	if p.Dims() != h.d {
		panic("histogram: query dimension mismatch")
	}
	return float64(h.counts[h.index(p)]) / h.volume
}

// N returns the number of points the histogram summarizes.
func (h *Histogram) N() int { return h.n }
