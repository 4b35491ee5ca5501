package stream

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/stats"
)

const (
	// cellsPerDim is the grid resolution g per shifted grid.
	cellsPerDim = 64
	// maxProbes is the size of the reservoir of observed points kept as
	// the estimator's probe points, exposed as Centers for core's floor
	// selection and one-pass normalizer.
	maxProbes = 32
)

// Options configure the sketch-backed estimator.
type Options struct {
	// Width is the counter width of EACH shift's sketch. Default is
	// 1<<14 divided by the number of shifts, so the total counter budget
	// is matched whether the estimator runs one grid or several.
	Width int

	// Depth is the number of sketch rows. Default 4.
	Depth int

	// Shifts is the number of offset grids averaged per density query
	// (Wells & Ting's averaged shifted histograms): grid s is offset by
	// s/Shifts of a cell width along every dimension, and Density is the
	// mean of the per-grid cell counts over the cell volume. 1 (the
	// default) is a plain single-grid sketch.
	Shifts int

	// Seed drives the sketch row hashes and the probe reservoir.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Shifts == 0 {
		o.Shifts = 1
	}
	if o.Width == 0 {
		o.Width = (1 << 14) / o.Shifts
	}
	if o.Depth == 0 {
		o.Depth = 4
	}
	return o
}

// Estimator estimates point density from Count-Min sketches of grid-cell
// occupancy, maintained incrementally: Observe folds a batch in.
// Densities are absolute cell counts over cell volume — independent of
// the total stream length. It satisfies core.DensityEstimator and
// exposes Centers and N, so it plugs into core.Draw, exact or one-pass.
type Estimator struct {
	domain   geom.Rect
	d        int
	shifts   int
	sketches []*CMSketch
	cellVol  float64
	n        int
	probes   []geom.Point
	rng      *stats.RNG
}

// New returns a sketch estimator over the domain: a single grid, or
// Options.Shifts averaged shifted grids.
func New(domain geom.Rect, opts Options) (*Estimator, error) {
	opts = opts.withDefaults()
	d := domain.Dims()
	if d == 0 {
		return nil, errors.New("stream: empty domain")
	}
	if opts.Shifts < 1 {
		return nil, errors.New("stream: Shifts must be positive")
	}
	vol := domain.Volume()
	if vol <= 0 || math.IsInf(vol, 0) || math.IsNaN(vol) {
		return nil, fmt.Errorf("stream: degenerate domain volume %v", vol)
	}
	e := &Estimator{
		domain:   domain.Clone(),
		d:        d,
		shifts:   opts.Shifts,
		sketches: make([]*CMSketch, opts.Shifts),
		cellVol:  vol / math.Pow(cellsPerDim, float64(d)),
		rng:      stats.NewRNG(stats.Mix64(opts.Seed ^ 0x57ea3)),
	}
	for s := range e.sketches {
		sk, err := NewCMSketch(opts.Width, opts.Depth, opts.Seed+uint64(s))
		if err != nil {
			return nil, err
		}
		e.sketches[s] = sk
	}
	return e, nil
}

// cellKey maps p to its cell identifier under shift s: FNV-1a over the
// per-dimension cell coordinates of the grid offset by s/shifts of a cell
// width. Out-of-domain coordinates clamp to the boundary cells (a shifted
// grid has g+1 cells per dimension; indices clamp to [0, g]).
func (e *Estimator) cellKey(s int, p geom.Point) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	off := float64(s) / float64(e.shifts)
	h := uint64(offset) ^ (uint64(s) * prime)
	for j := 0; j < e.d; j++ {
		side := e.domain.Side(j)
		var c int
		if side > 0 {
			c = int(cellsPerDim*(p[j]-e.domain.Min[j])/side + off)
		}
		if c < 0 {
			c = 0
		}
		if c > cellsPerDim {
			c = cellsPerDim
		}
		v := uint64(c)
		for k := 0; k < 4; k++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	return h
}

// Observe folds pts in: every shift's sketch counts each point's cell,
// and the probe reservoir samples uniformly over every point observed so
// far. A batch with a point of the wrong dimension is rejected whole,
// before any state changes.
func (e *Estimator) Observe(pts []geom.Point) error {
	for _, p := range pts {
		if len(p) != e.d {
			return fmt.Errorf("stream: point has %d dims, estimator %d", len(p), e.d)
		}
	}
	for _, p := range pts {
		for s := range e.sketches {
			e.sketches[s].Add(e.cellKey(s, p))
		}
		if len(e.probes) < maxProbes {
			e.probes = append(e.probes, p.Clone())
		} else if j := e.rng.Intn(e.n + 1); j < maxProbes {
			e.probes[j] = p.Clone()
		}
		e.n++
	}
	return nil
}

// Density implements core.DensityEstimator: the mean over shifts of p's
// cell count, divided by the cell volume. Counts are absolute occupancy,
// so the scale does not depend on the total stream length.
func (e *Estimator) Density(p geom.Point) float64 {
	var sum int64
	for s := range e.sketches {
		sum += e.sketches[s].Count(e.cellKey(s, p))
	}
	return float64(sum) / (float64(e.shifts) * e.cellVol)
}

// Centers exposes the probe points so core's floor selection and norm
// bootstrapping see representative data locations.
func (e *Estimator) Centers() []geom.Point { return e.probes }

// N reports the number of observed points.
func (e *Estimator) N() int { return e.n }

// Bytes reports the estimator's counter memory plus probe storage —
// O(width × depth + probes), independent of how many points have
// streamed through.
func (e *Estimator) Bytes() int {
	b := 0
	for _, sk := range e.sketches {
		b += sk.Bytes()
	}
	return b + len(e.probes)*e.d*8
}
