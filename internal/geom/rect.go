package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned hyper-rectangle [Min, Max].
// It is the region primitive used by the synthetic generators (clusters are
// hyper-rectangles, §4.1), the grid sampler, and the kd-tree bounds.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning [min, max]. It panics if the
// dimensions differ or any min coordinate exceeds the matching max.
func NewRect(min, max Point) Rect {
	mustSameDims(min, max)
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("geom: inverted rect on dim %d: %g > %g", i, min[i], max[i]))
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}
}

// UnitCube returns [0,1]^d, the canonical domain of the paper.
func UnitCube(d int) Rect {
	min := make(Point, d)
	max := make(Point, d)
	for i := range max {
		max[i] = 1
	}
	return Rect{Min: min, Max: max}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect { return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()} }

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	mustSameDims(r.Min, p)
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Side returns the extent of the rectangle along dimension i.
func (r Rect) Side(i int) float64 { return r.Max[i] - r.Min[i] }

// Volume returns the product of the side lengths.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Min {
		v *= r.Max[i] - r.Min[i]
	}
	return v
}

// Intersects reports whether r and s overlap (boundaries touching counts).
func (r Rect) Intersects(s Rect) bool {
	mustSameDims(r.Min, s.Min)
	for i := range r.Min {
		if r.Max[i] < s.Min[i] || s.Max[i] < r.Min[i] {
			return false
		}
	}
	return true
}

// Extend grows r in place to cover p.
func (r *Rect) Extend(p Point) {
	mustSameDims(r.Min, p)
	for i := range p {
		if p[i] < r.Min[i] {
			r.Min[i] = p[i]
		}
		if p[i] > r.Max[i] {
			r.Max[i] = p[i]
		}
	}
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (zero when p is inside). The kd-tree uses it for branch pruning and the
// KDE ball integral uses it to discard kernels with disjoint support.
func (r Rect) MinDist(p Point) float64 {
	mustSameDims(r.Min, p)
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Min[i]:
			d := r.Min[i] - p[i]
			s += d * d
		case p[i] > r.Max[i]:
			d := p[i] - r.Max[i]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// BoundingRect returns the tightest rectangle covering all pts.
// It panics if pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	r := Rect{Min: pts[0].Clone(), Max: pts[0].Clone()}
	for _, p := range pts[1:] {
		r.Extend(p)
	}
	return r
}
