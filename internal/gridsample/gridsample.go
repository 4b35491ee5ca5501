// Package gridsample implements the grid/hash density-biased sampling of
// Palmer & Faloutsos (SIGMOD 2000), the prior-work baseline the paper
// compares against (§1.1, §4.3 "Grid based Biased Sampling").
//
// The data space is partitioned into a regular grid; cell occupancy counts
// are kept in a bounded hash table, so distinct cells may collide into one
// bucket — the memory/accuracy degradation the paper highlights ("the
// quality of the sample degrades with collisions implicit to any hash
// based approach"). Sampling then draws each point of a bucket with
// population n_i with probability (b/Σ n_j^e) · n_i^(e-1):
//
//	e = 1   uniform sampling;
//	e = 0   equal expected count per occupied cell (undersamples dense,
//	        oversamples sparse — their recommended mode for skewed data);
//	e < 0   stronger bias toward sparse cells (the paper's Fig. 5(c) uses
//	        e = -0.5).
//
// The grid also doubles as a density estimator (Density reports bucket
// count divided by cell volume), so it can be plugged into internal/core's
// decoupled sampler for ablations against the kernel estimator.
package gridsample

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Options configure grid construction and sampling.
type Options struct {
	// Exponent is e; see the package comment.
	Exponent float64

	// TargetSize is the expected sample size b. Required by Draw.
	TargetSize int

	// MemoryBytes bounds the hash table (16 bytes per bucket). The
	// paper's comparison allows 5 MB. Default 5 MB.
	MemoryBytes int
}

// cellsPerDim is the grid resolution g (g^d logical cells).
const cellsPerDim = 64

// Grid is the bounded hash table of cell occupancy counts built in one
// dataset pass.
type Grid struct {
	domain  geom.Rect
	d       int
	buckets []bucket
	mask    uint64
	cellVol float64
	total   int
	// collided counts buckets that received at least two distinct cell
	// ids — the degradation measure.
	collided int
}

type bucket struct {
	count   int32
	firstID uint64 // +1; 0 means empty
	clash   bool
}

// BuildGrid scans ds once and returns the occupancy grid over the domain.
func BuildGrid(ds dataset.Dataset, domain geom.Rect, opts Options) (*Grid, error) {
	if ds.Len() == 0 {
		return nil, errors.New("gridsample: empty dataset")
	}
	mem := opts.MemoryBytes
	if mem == 0 {
		mem = 5 << 20
	}
	if mem < 16 {
		return nil, errors.New("gridsample: MemoryBytes too small for one bucket")
	}
	nb := nextPow2(mem / 16)
	d := ds.Dims()
	if domain.Dims() != d {
		return nil, errors.New("gridsample: domain dimensionality mismatch")
	}
	gr := &Grid{
		domain:  domain.Clone(),
		d:       d,
		buckets: make([]bucket, nb),
		mask:    uint64(nb - 1),
	}
	vol := domain.Volume()
	gr.cellVol = vol / math.Pow(cellsPerDim, float64(d))
	err := ds.Scan(func(p geom.Point) error {
		id := gr.cellID(p)
		b := &gr.buckets[id&gr.mask]
		if b.firstID == 0 {
			b.firstID = id + 1
		} else if b.firstID != id+1 && !b.clash {
			b.clash = true
			gr.collided++
		}
		b.count++
		gr.total++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gr, nil
}

// cellID maps a point to a hashed cell identifier (FNV-1a over the
// per-dimension cell coordinates). Points outside the domain clamp to the
// boundary cells.
func (gr *Grid) cellID(p geom.Point) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for j := 0; j < gr.d; j++ {
		side := gr.domain.Side(j)
		var c int
		if side > 0 {
			c = int(cellsPerDim * (p[j] - gr.domain.Min[j]) / side)
		}
		if c < 0 {
			c = 0
		}
		if c >= cellsPerDim {
			c = cellsPerDim - 1
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

// Count returns the occupancy of the bucket owning p's cell (including any
// colliding cells).
func (gr *Grid) Count(p geom.Point) int {
	return int(gr.buckets[gr.cellID(p)&gr.mask].count)
}

// Density returns the bucket count divided by the cell volume, making Grid
// a drop-in core.DensityEstimator.
func (gr *Grid) Density(p geom.Point) float64 {
	return float64(gr.Count(p)) / gr.cellVol
}

// Result is the output of Draw.
type Result struct {
	Points []dataset.WeightedPoint
	// Collisions is the number of hash buckets that merged distinct cells.
	Collisions int
	// DataPasses used (always 2: one to build the grid, one to sample).
	DataPasses int
	// Norm is Σ n_i^e over the points' buckets (the normalizer).
	Norm float64
}

// Draw runs the full Palmer-Faloutsos procedure: build the grid (pass 1),
// then sample each point with probability (b/K)·n^(e-1) where n is its
// bucket count and K = Σ_points n^(e-1) = Σ_buckets n^e (pass 2).
func Draw(ds dataset.Dataset, domain geom.Rect, opts Options, rng *stats.RNG) (*Result, error) {
	if opts.TargetSize <= 0 {
		return nil, errors.New("gridsample: TargetSize must be positive")
	}
	gr, err := BuildGrid(ds, domain, opts)
	if err != nil {
		return nil, err
	}
	// K = Σ over occupied buckets of n_i^e, computable without rescanning.
	var norm float64
	for i := range gr.buckets {
		if n := float64(gr.buckets[i].count); n > 0 {
			norm += math.Pow(n, opts.Exponent)
		}
	}
	if norm <= 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
		return nil, errors.New("gridsample: degenerate normalizer")
	}
	b := float64(opts.TargetSize)
	res := &Result{Collisions: gr.collided, DataPasses: 2, Norm: norm}
	err = ds.Scan(func(p geom.Point) error {
		n := float64(gr.Count(p))
		prob := b / norm * math.Pow(n, opts.Exponent-1)
		if prob > 1 {
			prob = 1
		}
		if rng.Bernoulli(prob) {
			res.Points = append(res.Points, dataset.WeightedPoint{P: p.Clone(), W: 1 / prob})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
