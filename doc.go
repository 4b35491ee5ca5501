// Package repro is a Go implementation of density-biased sampling for
// approximate data mining, reproducing "An Efficient Approximation Scheme
// for Data Mining Tasks" (Kollios, Gunopulos, Koudas, Berchtold — ICDE
// 2001).
//
// The library reduces a large multidimensional dataset to a small sample
// whose composition is tuned to the analysis task: kernel density
// estimation (one dataset pass) yields a density f, and each point x is
// kept with probability proportional to f(x)^a. Positive exponents
// concentrate the sample on dense regions (robust cluster detection under
// noise); exponents in (-1, 0) lift small and sparse clusters without
// losing the dense ones; strongly negative exponents hunt outliers.
// Standard algorithms — a CURE-style hierarchical clusterer, weighted
// k-means/k-medoids, distance-based DB(p,k) outlier detection — then run
// on the sample.
//
// The top-level package is a facade over the internal subsystems:
//
//	internal/core        density-biased sampling (the paper's algorithm)
//	internal/kde         kernel density estimation
//	internal/cure        hierarchical clustering with representatives
//	internal/birch       BIRCH (comparison system)
//	internal/kmeans      weighted k-means / k-medoids
//	internal/outlier     DB(p,k) outlier detection, exact + approximate
//	internal/gridsample  Palmer-Faloutsos grid sampling (baseline)
//	internal/synth       synthetic workload generators
//	internal/experiments reproduction of every table/figure (see DESIGN.md)
//
// A minimal end-to-end flow:
//
//	ds, _ := repro.FromPoints(points)
//	est, _ := repro.BuildEstimator(ds, repro.EstimatorOptions{}, rng)
//	s, _ := repro.BiasedSample(ds, est, repro.SampleOptions{Alpha: 1, Size: 1000}, rng)
//	clusters, _ := repro.ClusterSample(s.Points(), repro.ClusterOptions{K: 10})
//
// See the examples/ directory for runnable programs and EXPERIMENTS.md
// for the paper-versus-measured record.
package repro
