// Package birch implements the BIRCH clustering algorithm (Zhang,
// Ramakrishnan, Livny — SIGMOD 1996), the comparison system of §4: a
// CF-tree summarizing the dataset in one pass under a memory budget,
// followed by a global clustering phase over the leaf entries.
//
// Matching the paper's setup (§4.2): page size 1024 bytes, initial
// threshold 0, and the CF-tree constrained to "as much space as the size
// of the sample" while BIRCH itself scans the entire dataset.
package birch

import (
	"math"

	"repro/internal/geom"
)

// CF is a clustering feature: the sufficient statistics (N, LS, SS) of a
// set of points, supporting constant-time merge and the centroid/radius
// queries BIRCH needs.
type CF struct {
	// N is the number of points summarized.
	N int
	// LS is the per-dimension linear sum Σ x_i.
	LS geom.Point
	// SS is the scalar square sum Σ ||x_i||².
	SS float64
}

// NewCF returns the clustering feature of a single point.
func NewCF(p geom.Point) CF {
	var ss float64
	for _, v := range p {
		ss += v * v
	}
	return CF{N: 1, LS: p.Clone(), SS: ss}
}

// Merge folds another feature into c.
func (c *CF) Merge(o CF) {
	if o.N == 0 {
		return
	}
	if c.N == 0 {
		c.N = o.N
		c.LS = o.LS.Clone()
		c.SS = o.SS
		return
	}
	c.N += o.N
	c.LS.AddInPlace(o.LS)
	c.SS += o.SS
}

// Centroid returns LS/N. It panics on an empty feature.
func (c *CF) Centroid() geom.Point {
	if c.N == 0 {
		panic("birch: centroid of empty CF")
	}
	return c.LS.Scale(1 / float64(c.N))
}

// Radius returns the root-mean-square distance of the summarized points
// from their centroid: sqrt(SS/N - ||LS/N||²).
func (c *CF) Radius() float64 {
	if c.N == 0 {
		return 0
	}
	n := float64(c.N)
	var cc float64
	for _, v := range c.LS {
		cc += (v / n) * (v / n)
	}
	r2 := c.SS/n - cc
	if r2 < 0 {
		return 0 // float rounding on tight clusters
	}
	return math.Sqrt(r2)
}

// MergedRadius returns the radius the union of c and o would have, without
// materializing the merge — the absorb test of the insertion algorithm.
func (c *CF) MergedRadius(o CF) float64 {
	m := CF{N: c.N, LS: c.LS.Clone(), SS: c.SS}
	m.Merge(o)
	return m.Radius()
}
