package geom

import "math"

// SquaredDistance returns the squared Euclidean distance between p and q.
// It avoids the square root for hot paths (nearest-neighbour search,
// k-means assignment) where only the ordering matters.
func SquaredDistance(p, q Point) float64 {
	mustSameDims(p, q)
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance between p and q.
func Distance(p, q Point) float64 { return math.Sqrt(SquaredDistance(p, q)) }

// UnitBallVolume returns the volume of the d-dimensional Euclidean ball of
// radius r: V_d(r) = π^(d/2) / Γ(d/2+1) · r^d. The outlier detector uses it
// to reason about expected neighbour counts under a density estimate.
func UnitBallVolume(d int, r float64) float64 {
	if d < 0 {
		panic("geom: negative dimension")
	}
	lg, _ := math.Lgamma(float64(d)/2 + 1)
	return math.Exp(float64(d)/2*math.Log(math.Pi) - lg + float64(d)*math.Log(r))
}
