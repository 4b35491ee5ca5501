package repro

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/cure"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/kmeans"
	"repro/internal/obs"
	"repro/internal/outlier"
	"repro/internal/stats"
)

// ErrCanceled is returned (wrapped) by the pipeline stages when a run is
// abandoned because its context was canceled or its deadline expired.
// Cancellation checks are coarse — per scan block or merge step, never per
// point — so latency is bounded by one block's work. Test with
// errors.Is(err, ErrCanceled); the wrapped chain also matches
// context.Canceled or context.DeadlineExceeded.
var ErrCanceled = dataset.ErrCanceled

// Recorder collects counters, gauges, and span timings from a pipeline
// run; see the internal/obs package for the reports it can write. Pass
// one through SampleOptions.Obs, ClusterOptions.Obs, EstimatorOptions.Obs,
// or OutlierParams.Obs. Each call counts its own work into the Recorder
// it is given: EstimatorOptions.Obs records the estimator's build, and a
// draw's kernel evaluations go to SampleOptions.Obs. An estimator keeps
// no Recorder. A nil Recorder disables all recording at near-zero cost,
// and recording never changes any result: samples and clusterings are
// bit-identical with observability on or off.
type Recorder = obs.Recorder

// NewRecorder returns an empty Recorder ready to be threaded through the
// pipeline options.
func NewRecorder() *Recorder { return obs.New() }

// Point is a d-dimensional point.
type Point = geom.Point

// Dataset is a scannable point collection; see FromPoints, LoadCSV and
// OpenBinary for constructors.
type Dataset = dataset.Dataset

// WeightedPoint pairs a sampled point with its inverse inclusion
// probability, the weight §3.1 of the paper prescribes for objectives that
// weight original points equally.
type WeightedPoint = dataset.WeightedPoint

// RNG is the deterministic random number generator used throughout; the
// same seed reproduces the same samples and clusterings.
type RNG = stats.RNG

// NewRNG returns a generator for the given seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// FromPoints wraps points as an in-memory Dataset. The slice is retained.
func FromPoints(pts []Point) (Dataset, error) { return dataset.NewInMemory(pts) }

// LoadCSV parses comma-separated rows (one point per line; blank lines and
// '#' comments skipped) into an in-memory Dataset.
func LoadCSV(r io.Reader) (Dataset, error) { return dataset.ReadCSV(r) }

// OpenBinary opens a binary dataset file of either format (DBS1, written
// by SaveBinary or cmd/dbsgen; DBS2, by dbsgen -segmented) as a file-backed
// Dataset. A DBS1 file is streamed from disk a block at a time.
func OpenBinary(path string) (Dataset, error) { return dataset.Open(path) }

// SaveBinary writes any Dataset to the binary file format.
func SaveBinary(path string, ds Dataset) error { return dataset.SaveBinary(path, ds) }

// FingerprintDataset returns the 64-bit content fingerprint of ds — an
// FNV-1a digest of its binary codec stream, identical for any worker count
// and any Dataset implementation holding the same points. The serving
// layer keys cached estimators and samples on it. Costs one dataset pass.
func FingerprintDataset(ds Dataset, parallelism int) (uint64, error) {
	return dataset.Fingerprint(ds, parallelism)
}

// Estimator is a kernel density estimator scaled so that its integral
// over a region approximates the number of dataset points there.
type Estimator = kde.Estimator

// EstimatorOptions configure density estimation. The zero value follows
// the paper: 1000 Epanechnikov kernels, Scott's-rule bandwidths.
type EstimatorOptions = kde.Options

// BuildEstimator constructs a density estimator in one dataset pass.
func BuildEstimator(ds Dataset, opts EstimatorOptions, rng *RNG) (*Estimator, error) {
	return kde.Build(ds, opts, rng)
}

// SampleOptions configure density-biased sampling.
type SampleOptions struct {
	// Alpha is the bias exponent a of the paper: 0 uniform, positive
	// favours dense regions, negative favours sparse regions.
	Alpha float64
	// Size is the expected sample size b.
	Size int
	// OnePass uses the integrated single-pass variant (approximate
	// normalizer) instead of the exact two-pass algorithm.
	OnePass bool
	// FloorDensity optionally overrides the adaptive density floor used
	// to keep f(x)^a finite for negative Alpha.
	FloorDensity float64
	// Parallelism bounds the workers used to scan and score the dataset:
	// 0 uses runtime.GOMAXPROCS(0), 1 is the serial reference path. The
	// drawn sample is identical for every setting.
	Parallelism int
	// Ctx, when non-nil, cancels the draw at block granularity; a done
	// context aborts with ErrCanceled.
	Ctx context.Context
	// Obs, when non-nil, records the draw's spans, counters, and gauges.
	Obs *Recorder
	// Progress, when non-nil, receives (points scanned, total) at block
	// granularity during each dataset pass; it may be called from
	// concurrent scan workers and restarts at each pass.
	Progress func(done, total int)
	// VerifyNorm, with OnePass and a Recorder attached, spends one extra
	// diagnostic pass computing the exact normalizer and records the
	// relative error of the one-pass approximation as a gauge. The drawn
	// sample is unaffected.
	VerifyNorm bool
}

// Sample is a density-biased sample.
type Sample struct {
	inner *core.Sample
}

// Weighted returns the sampled points with inverse-probability weights.
func (s *Sample) Weighted() []WeightedPoint { return s.inner.Points }

// Points returns the sampled points without weights.
func (s *Sample) Points() []Point { return s.inner.PlainPoints() }

// Len returns the realized sample size.
func (s *Sample) Len() int { return len(s.inner.Points) }

// DataPasses returns how many passes the sampling algorithm has (2
// exact, 1 one-pass), excluding estimator construction. At a = 0 the
// exact draw scans once, since its first pass would sum to n.
func (s *Sample) DataPasses() int { return s.inner.DataPasses }

// Norm returns the normalizer k_a used by the run.
func (s *Sample) Norm() float64 { return s.inner.Norm }

// BiasedSample draws a density-biased sample per the paper's Figure 1
// algorithm.
func BiasedSample(ds Dataset, est *Estimator, opts SampleOptions, rng *RNG) (*Sample, error) {
	inner, err := core.Draw(ds, est, core.Options{
		Alpha:        opts.Alpha,
		TargetSize:   opts.Size,
		OnePass:      opts.OnePass,
		FloorDensity: opts.FloorDensity,
		Parallelism:  opts.Parallelism,
		Ctx:          opts.Ctx,
		Obs:          opts.Obs,
		Progress:     opts.Progress,
		VerifyNorm:   opts.VerifyNorm,
	}, rng)
	if err != nil {
		return nil, err
	}
	return &Sample{inner: inner}, nil
}

// UniformSample draws a plain Bernoulli sample of expected size b — the
// uniform-sampling baseline.
func UniformSample(ds Dataset, b int, rng *RNG) ([]Point, error) {
	return dataset.Bernoulli(ds, b, rng)
}

// ReservoirSample draws an exact-size uniform sample in one pass
// (Vitter's Algorithm R).
func ReservoirSample(ds Dataset, k int, rng *RNG) ([]Point, error) {
	return dataset.Reservoir(ds, k, rng)
}

// ClusterOptions configure hierarchical clustering of a sample.
type ClusterOptions struct {
	// K is the number of clusters. Required.
	K int
	// NumReps is the representatives per cluster (default 10).
	NumReps int
	// Shrink is the representative shrink factor α (default 0.3).
	Shrink float64
	// NoiseTrim enables CURE-style two-phase outlier elimination sized
	// for samples that carry background noise.
	NoiseTrim bool
	// Parallelism bounds the workers used for the quadratic distance
	// phases: 0 uses runtime.GOMAXPROCS(0), 1 is the serial reference
	// path. The clustering is identical for every setting.
	Parallelism int
	// Ctx, when non-nil, cancels the clustering at merge-step granularity;
	// a done context aborts with ErrCanceled.
	Ctx context.Context
	// Obs, when non-nil, records the clustering's spans and counters.
	Obs *Recorder
}

// Cluster is one discovered cluster.
type Cluster = cure.Cluster

// ClusterSample runs the CURE-style hierarchical algorithm on sample
// points (§3.1). The returned clusters carry shrunk representative points
// describing their shapes.
func ClusterSample(pts []Point, opts ClusterOptions) ([]Cluster, error) {
	co := cure.Options{K: opts.K, NumReps: opts.NumReps, Shrink: opts.Shrink, Parallelism: opts.Parallelism, Ctx: opts.Ctx, Obs: opts.Obs}
	if opts.NoiseTrim {
		co.TrimAt, co.TrimMinSize, co.FinalTrimAt, co.FinalTrimMinSize = cure.NoiseTrimSizing(len(pts), opts.K, 500)
	}
	return cure.Run(pts, co)
}

// ClusterSamplePartitioned is ClusterSample with CURE's partitioning
// speedup: partitions are pre-clustered independently (cutting the
// quadratic cost by roughly the partition count) and their partial
// clusters merged into the final K.
func ClusterSamplePartitioned(pts []Point, opts ClusterOptions, partitions int) ([]Cluster, error) {
	co := cure.Options{K: opts.K, NumReps: opts.NumReps, Shrink: opts.Shrink, Parallelism: opts.Parallelism, Ctx: opts.Ctx, Obs: opts.Obs}
	if opts.NoiseTrim {
		co.TrimAt, co.TrimMinSize, co.FinalTrimAt, co.FinalTrimMinSize = cure.NoiseTrimSizing(len(pts), opts.K, 300)
	}
	return cure.RunPartitioned(pts, co, partitions, 4)
}

// AssignAll labels every dataset point with the index of the nearest
// cluster representative — extending a sample clustering to the full data.
func AssignAll(pts []Point, clusters []Cluster) []int {
	return cure.Assign(pts, clusters)
}

// KMeansResult is the output of weighted k-means or k-medoids.
type KMeansResult = kmeans.Result

// WeightedKMeans clusters a weighted sample with Lloyd's algorithm and
// k-means++ seeding. Use a biased sample's Weighted() points so the
// objective matches the full dataset (§3.1).
func WeightedKMeans(pts []WeightedPoint, k int, rng *RNG) (*KMeansResult, error) {
	return kmeans.Run(pts, kmeans.Options{K: k}, rng)
}

// WeightedKMedoids clusters a weighted sample with Voronoi-iteration
// k-medoids.
func WeightedKMedoids(pts []WeightedPoint, k int, rng *RNG) (*KMeansResult, error) {
	return kmeans.RunMedoids(pts, kmeans.Options{K: k}, rng)
}

// OutlierParams are the DB(p,k) parameters: an outlier has at most P
// neighbours within distance K.
type OutlierParams = outlier.Params

// FindOutliers detects all DB(p,k) outliers exactly using a kd-tree index.
func FindOutliers(pts []Point, prm OutlierParams) ([]int, error) {
	return outlier.Exact(pts, prm)
}

// OutlierResult reports an approximate detection run.
type OutlierResult = outlier.Result

// FindOutliersApprox runs the paper's density-guided detector (§3.2):
// one pass scores every point by its expected neighbour count under the
// estimate, one more pass verifies the low-density candidates exactly.
func FindOutliersApprox(ds Dataset, est *Estimator, prm OutlierParams) (*OutlierResult, error) {
	return outlier.Approximate(ds, est, prm, outlier.ApproxOptions{})
}

// EstimateOutlierCount estimates the number of DB(p,k) outliers in one
// pass — the cheap parameter-exploration mode of §3.2.
func EstimateOutlierCount(ds Dataset, est *Estimator, prm OutlierParams) (int, error) {
	return outlier.EstimateCount(ds, est, prm)
}
