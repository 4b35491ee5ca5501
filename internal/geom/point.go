// Package geom provides the low-level geometric primitives shared by every
// other subsystem: d-dimensional points, axis-aligned rectangles and the
// Euclidean distance.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a d-dimensional point with float64 coordinates.
//
// Points are ordinary slices: they may be sub-sliced, compared with Equal,
// and mutated in place. Functions in this module never retain a caller's
// Point unless documented otherwise.
type Point []float64

// Dims returns the dimensionality of the point.
func (p Point) Dims() int { return len(p) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical dimensionality and coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Scale returns s*p as a new point.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = s * p[i]
	}
	return r
}

// AddInPlace adds q into p without allocating.
func (p Point) AddInPlace(q Point) {
	mustSameDims(p, q)
	for i := range p {
		p[i] += q[i]
	}
}

// Lerp returns p + t*(q-p), the linear interpolation between p and q.
// t=0 yields p, t=1 yields q. CURE's representative shrinking uses this
// with t equal to the shrink factor toward the cluster mean.
func (p Point) Lerp(q Point, t float64) Point {
	mustSameDims(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + t*(q[i]-p[i])
	}
	return r
}

// Norm returns the Euclidean (L2) norm of p.
func (p Point) Norm() float64 {
	var s float64
	for _, v := range p {
		s += v * v
	}
	return math.Sqrt(s)
}

// IsFinite reports whether every coordinate is finite (no NaN or ±Inf).
func (p Point) IsFinite() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String formats the point as "(x1, x2, ...)" with compact precision.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.6g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Centroid returns the arithmetic mean of the given points.
// It panics if pts is empty or dimensions are inconsistent.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	c := make(Point, len(pts[0]))
	for _, p := range pts {
		mustSameDims(c, p)
		for i := range c {
			c[i] += p[i]
		}
	}
	inv := 1.0 / float64(len(pts))
	for i := range c {
		c[i] *= inv
	}
	return c
}

func mustSameDims(p, q Point) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
}
