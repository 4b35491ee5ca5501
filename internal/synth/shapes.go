// Package synth generates the synthetic and substitute workloads of the
// paper's evaluation (§4.1): hyper-rectangular clusters with uniform
// interiors, variable sizes and densities, additive uniform noise, the
// CURE dataset1 lookalike used in Fig. 3, the variable-density DS2, the
// geospatial substitutes (NorthEast / California / ForestCover lookalikes,
// see DESIGN.md §3), and planted-outlier datasets for §3.2.
//
// All generators are deterministic given an RNG, and return labelled data
// so internal/eval can score clustering output against ground truth.
package synth

import (
	"math"

	"repro/internal/geom"
	"repro/internal/stats"
)

// Shape is a region that can be sampled uniformly (or near-uniformly) and
// queried for membership. Ground-truth clusters are shapes; the evaluation
// metric asks whether found representatives lie inside the true shape.
type Shape interface {
	// Sample draws one point from the shape's distribution.
	Sample(rng *stats.RNG) geom.Point
	// Contains reports whether p lies in the shape's interior (for
	// Gaussian shapes, within the 3σ ellipsoid).
	Contains(p geom.Point) bool
	// Bounds returns a rectangle covering the shape.
	Bounds() geom.Rect
}

// Box is a hyper-rectangle with a uniform interior — the cluster shape of
// §4.1 ("each cluster is defined as a hyper-rectangle, and the points in
// the interior of the cluster are uniformly distributed").
type Box struct {
	R geom.Rect
}

// Sample draws a uniform point in the box.
func (b Box) Sample(rng *stats.RNG) geom.Point {
	p := make(geom.Point, b.R.Dims())
	for i := range p {
		p[i] = rng.Uniform(b.R.Min[i], b.R.Max[i])
	}
	return p
}

// Contains reports whether p is inside the box.
func (b Box) Contains(p geom.Point) bool { return b.R.Contains(p) }

// Bounds returns the box itself.
func (b Box) Bounds() geom.Rect { return b.R.Clone() }

// Ball is a uniform-density Euclidean ball.
type Ball struct {
	Center geom.Point
	Radius float64
}

// Sample draws a uniform point in the ball by rejection from the bounding box.
func (b Ball) Sample(rng *stats.RNG) geom.Point {
	d := b.Center.Dims()
	for {
		p := make(geom.Point, d)
		var r2 float64
		for i := range p {
			u := rng.Uniform(-1, 1)
			p[i] = u
			r2 += u * u
		}
		if r2 <= 1 {
			for i := range p {
				p[i] = b.Center[i] + b.Radius*p[i]
			}
			return p
		}
	}
}

// Contains reports whether p lies within the ball.
func (b Ball) Contains(p geom.Point) bool {
	return geom.Distance(p, b.Center) <= b.Radius
}

// Bounds returns the ball's bounding box.
func (b Ball) Bounds() geom.Rect {
	min := make(geom.Point, len(b.Center))
	max := make(geom.Point, len(b.Center))
	for i, c := range b.Center {
		min[i] = c - b.Radius
		max[i] = c + b.Radius
	}
	return geom.Rect{Min: min, Max: max}
}

// Ellipsoid is a uniform-density axis-aligned ellipsoid, used by the DS1
// lookalike for the two elongated clusters of Fig. 3(a).
type Ellipsoid struct {
	Center geom.Point
	Radii  geom.Point
}

// Sample draws a uniform point in the ellipsoid.
func (e Ellipsoid) Sample(rng *stats.RNG) geom.Point {
	d := e.Center.Dims()
	for {
		u := make(geom.Point, d)
		var r2 float64
		for i := range u {
			v := rng.Uniform(-1, 1)
			u[i] = v
			r2 += v * v
		}
		if r2 <= 1 {
			p := make(geom.Point, d)
			for i := range p {
				p[i] = e.Center[i] + e.Radii[i]*u[i]
			}
			return p
		}
	}
}

// Contains reports whether p lies within the ellipsoid.
func (e Ellipsoid) Contains(p geom.Point) bool {
	var s float64
	for i := range p {
		u := (p[i] - e.Center[i]) / e.Radii[i]
		s += u * u
	}
	return s <= 1
}

// Bounds returns the ellipsoid's bounding box.
func (e Ellipsoid) Bounds() geom.Rect {
	min := make(geom.Point, len(e.Center))
	max := make(geom.Point, len(e.Center))
	for i := range e.Center {
		min[i] = e.Center[i] - e.Radii[i]
		max[i] = e.Center[i] + e.Radii[i]
	}
	return geom.Rect{Min: min, Max: max}
}

// GaussianShape is an isotropic normal blob; Contains uses the 3σ ball.
// The geospatial substitutes use it for metro areas.
type GaussianShape struct {
	Center geom.Point
	Sigma  float64
}

// Sample draws one normal variate around the center.
func (g GaussianShape) Sample(rng *stats.RNG) geom.Point {
	p := make(geom.Point, g.Center.Dims())
	for i := range p {
		p[i] = rng.Normal(g.Center[i], g.Sigma)
	}
	return p
}

// Contains reports whether p is within 3σ of the center.
func (g GaussianShape) Contains(p geom.Point) bool {
	return geom.Distance(p, g.Center) <= 3*g.Sigma
}

// Bounds returns the 3σ bounding box.
func (g GaussianShape) Bounds() geom.Rect {
	min := make(geom.Point, len(g.Center))
	max := make(geom.Point, len(g.Center))
	for i, c := range g.Center {
		min[i] = c - 3*g.Sigma
		max[i] = c + 3*g.Sigma
	}
	return geom.Rect{Min: min, Max: max}
}

// sideForDensity returns the box side length giving `size` points the
// target density in d dimensions: side = (size/density)^(1/d).
func sideForDensity(size int, density float64, d int) float64 {
	return math.Pow(float64(size)/density, 1/float64(d))
}
