// Package kmeans implements weighted k-means (Lloyd's algorithm with
// k-means++ seeding) and weighted k-medoids (Voronoi iteration).
//
// Section 3.1 observes that k-means and k-medoids optimize an objective
// that weights every original dataset point equally, so running them on a
// biased sample requires weighting each sample point by the inverse of its
// inclusion probability ("we have to weight the sample points with the
// inverse of the probability that each was sampled"). These
// implementations take such weights directly; uniform sampling corresponds
// to constant weights.
package kmeans

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Options configure a run.
type Options struct {
	// K is the number of clusters. Required.
	K int
}

const (
	// maxIter bounds the Lloyd / Voronoi iterations.
	maxIter = 100
	// tolerance stops iteration when the relative objective improvement
	// falls below it.
	tolerance = 1e-6
)

// Result holds the clustering output.
type Result struct {
	// Centers are the final cluster centers (means or medoids).
	Centers []geom.Point
	// Labels assigns each input point to a center index.
	Labels []int
	// Cost is the weighted objective Σ w_i · dist²(x_i, center(x_i)) for
	// k-means, or Σ w_i · dist(x_i, medoid(x_i)) for k-medoids.
	Cost float64
	// Iterations actually performed.
	Iterations int
}

func validate(pts []dataset.WeightedPoint, opts Options) error {
	if len(pts) == 0 {
		return errors.New("kmeans: no points")
	}
	if opts.K <= 0 {
		return errors.New("kmeans: K must be positive")
	}
	if opts.K > len(pts) {
		return errors.New("kmeans: K exceeds number of points")
	}
	for _, wp := range pts {
		if wp.W < 0 || math.IsNaN(wp.W) || math.IsInf(wp.W, 0) {
			return errors.New("kmeans: invalid weight")
		}
	}
	return nil
}

// seedPlusPlus picks K initial centers with weighted k-means++: the first
// uniformly weighted by w, each next with probability proportional to
// w·D²(x) where D is the distance to the nearest chosen center.
func seedPlusPlus(pts []dataset.WeightedPoint, k int, rng *stats.RNG) []geom.Point {
	centers := make([]geom.Point, 0, k)
	d2 := make([]float64, len(pts))

	var totW float64
	for _, wp := range pts {
		totW += wp.W
	}
	r := rng.Float64() * totW
	first := 0
	for i, wp := range pts {
		r -= wp.W
		if r <= 0 {
			first = i
			break
		}
	}
	centers = append(centers, pts[first].P.Clone())
	for i, wp := range pts {
		d2[i] = geom.SquaredDistance(wp.P, centers[0])
	}

	for len(centers) < k {
		var tot float64
		for i, wp := range pts {
			tot += wp.W * d2[i]
		}
		var next int
		if tot == 0 {
			// All remaining mass coincides with a center; pick any point.
			next = rng.Intn(len(pts))
		} else {
			r := rng.Float64() * tot
			for i, wp := range pts {
				r -= wp.W * d2[i]
				if r <= 0 {
					next = i
					break
				}
			}
		}
		c := pts[next].P.Clone()
		centers = append(centers, c)
		for i, wp := range pts {
			if d := geom.SquaredDistance(wp.P, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

// Run executes weighted k-means and returns the best clustering found.
func Run(pts []dataset.WeightedPoint, opts Options, rng *stats.RNG) (*Result, error) {
	if err := validate(pts, opts); err != nil {
		return nil, err
	}
	d := pts[0].P.Dims()
	centers := seedPlusPlus(pts, opts.K, rng)
	labels := make([]int, len(pts))
	prevCost := math.Inf(1)
	iter := 0
	var cost float64

	for ; iter < maxIter; iter++ {
		// Assignment step.
		cost = 0
		for i, wp := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if dd := geom.SquaredDistance(wp.P, ctr); dd < bestD {
					best, bestD = c, dd
				}
			}
			labels[i] = best
			cost += wp.W * bestD
		}
		// Update step: weighted means.
		sums := make([]geom.Point, opts.K)
		ws := make([]float64, opts.K)
		for c := range sums {
			sums[c] = make(geom.Point, d)
		}
		for i, wp := range pts {
			c := labels[i]
			ws[c] += wp.W
			for j := range sums[c] {
				sums[c][j] += wp.W * wp.P[j]
			}
		}
		for c := range centers {
			if ws[c] == 0 {
				// Empty cluster: reseed at the weighted-farthest point.
				centers[c] = farthestPoint(pts, centers).Clone()
				continue
			}
			for j := range sums[c] {
				sums[c][j] /= ws[c]
			}
			centers[c] = sums[c]
		}
		if prevCost-cost <= tolerance*math.Abs(prevCost) {
			iter++
			break
		}
		prevCost = cost
	}
	return &Result{Centers: centers, Labels: labels, Cost: cost, Iterations: iter}, nil
}

// farthestPoint returns the input point with the largest weighted squared
// distance to its nearest center — the reseeding target for empty clusters.
func farthestPoint(pts []dataset.WeightedPoint, centers []geom.Point) geom.Point {
	best, bestV := 0, -1.0
	for i, wp := range pts {
		near := math.Inf(1)
		for _, c := range centers {
			if d := geom.SquaredDistance(wp.P, c); d < near {
				near = d
			}
		}
		if v := wp.W * near; v > bestV {
			best, bestV = i, v
		}
	}
	return pts[best].P
}

// RunMedoids executes weighted k-medoids by Voronoi iteration: assign
// points to the nearest medoid, then replace each medoid with the member
// minimizing the weighted sum of distances within its cluster.
func RunMedoids(pts []dataset.WeightedPoint, opts Options, rng *stats.RNG) (*Result, error) {
	if err := validate(pts, opts); err != nil {
		return nil, err
	}
	medoids := seedPlusPlus(pts, opts.K, rng)
	labels := make([]int, len(pts))
	prevCost := math.Inf(1)
	iter := 0
	var cost float64

	for ; iter < maxIter; iter++ {
		cost = 0
		for i, wp := range pts {
			best, bestD := 0, math.Inf(1)
			for c, m := range medoids {
				if dd := geom.Distance(wp.P, m); dd < bestD {
					best, bestD = c, dd
				}
			}
			labels[i] = best
			cost += wp.W * bestD
		}
		// Medoid update: for each cluster, the member minimizing the
		// weighted distance sum to the other members.
		changed := false
		for c := range medoids {
			var members []int
			for i := range pts {
				if labels[i] == c {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			best, bestSum := -1, math.Inf(1)
			for _, cand := range members {
				var sum float64
				for _, o := range members {
					sum += pts[o].W * geom.Distance(pts[cand].P, pts[o].P)
				}
				if sum < bestSum {
					best, bestSum = cand, sum
				}
			}
			if !medoids[c].Equal(pts[best].P) {
				medoids[c] = pts[best].P.Clone()
				changed = true
			}
		}
		if !changed || prevCost-cost <= tolerance*math.Abs(prevCost) {
			iter++
			break
		}
		prevCost = cost
	}
	return &Result{Centers: medoids, Labels: labels, Cost: cost, Iterations: iter}, nil
}
