package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cure"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/gridsample"
	"repro/internal/histogram"
	"repro/internal/kde"
	"repro/internal/kmeans"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("ablation-kernel", "kernel-function choice vs clustering quality", ablationKernel)
	register("ablation-onepass", "exact two-pass vs integrated one-pass sampling", ablationOnePass)
	register("ablation-alpha", "bias exponent sweep on the variable-density workload", ablationAlpha)
	register("ablation-weights", "inverse-probability weights for k-means on biased samples (§3.1)", ablationWeights)
	register("ablation-estimator", "density estimator choice: kernels vs histogram vs hash grid", ablationEstimator)
	register("ablation-partitions", "CURE partitioning speedup on a large sample", ablationPartitions)
}

// ablationKernel swaps the kernel profile on the Fig. 4 (50% noise)
// workload: the paper uses Epanechnikov; the ablation shows the choice is
// not load-bearing.
func ablationKernel(cfg Config) (*Table, error) {
	total := 100000
	if cfg.Quick {
		total = 20000
	}
	b := total / 50
	tr := trials(cfg)
	t := &Table{
		Columns: []string{"kernel", "found (of 10)"},
		Notes:   []string{fmt.Sprintf("2-d, %d base points + 50%% noise, a=1, sample %d, %d trial(s)", total, b, tr)},
	}
	for _, name := range []string{"epanechnikov", "biweight", "triangular", "uniform", "gaussian"} {
		kern := kde.KernelByName(name)
		found, err := avgOver(cfg, tr, func(rng *stats.RNG) (int, error) {
			l := noiseWorkload(2, total, 0.50, rng)
			ds := l.Dataset()
			est, err := kde.Build(ds, kde.Options{NumKernels: kde.DefaultNumKernels, Kernel: kern}, rng)
			if err != nil {
				return 0, err
			}
			s, err := core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: b}, rng)
			if err != nil {
				return 0, err
			}
			return clusterAndScore(l, s.PlainPoints(), 10)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{name, ftoa(found)})
	}
	return t, nil
}

// ablationOnePass compares the exact two-pass normalizer against the
// integrated one-pass approximation (§2.2's integration remark): quality
// should match while one data pass is saved.
func ablationOnePass(cfg Config) (*Table, error) {
	total := 100000
	if cfg.Quick {
		total = 20000
	}
	b := total / 50
	tr := trials(cfg)
	t := &Table{
		Columns: []string{"variant", "found (of 10)", "detect passes", "norm rel err"},
		Notes:   []string{fmt.Sprintf("2-d, %d base points + 30%% noise, a=1, sample %d, %d trial(s)", total, b, tr)},
	}
	for _, onePass := range []bool{false, true} {
		onePass := onePass
		var relErrSum float64
		var passes int
		found, err := avgOver(cfg, tr, func(rng *stats.RNG) (int, error) {
			l := noiseWorkload(2, total, 0.30, rng)
			ds := l.Dataset()
			est, err := kde.Build(ds, kde.Options{NumKernels: kde.DefaultNumKernels}, rng)
			if err != nil {
				return 0, err
			}
			const floor = 1.0
			exact, err := core.ExactNorm(ds, est, 1, floor)
			if err != nil {
				return 0, err
			}
			s, err := core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: b, OnePass: onePass, FloorDensity: floor}, rng)
			if err != nil {
				return 0, err
			}
			relErrSum += math.Abs(s.Norm-exact) / exact
			passes = s.DataPasses
			return clusterAndScore(l, s.PlainPoints(), 10)
		})
		if err != nil {
			return nil, err
		}
		name := "two-pass exact"
		if onePass {
			name = "one-pass integrated"
		}
		t.Rows = append(t.Rows, []string{name, ftoa(found), itoa(passes), ftoa(relErrSum / float64(tr))})
	}
	return t, nil
}

// ablationAlpha sweeps the bias exponent on the variable-density
// workload: a≈-0.5 is the sweet spot for small sparse clusters, a=0 is
// uniform, strongly negative a floods the sample with noise, positive a
// abandons the sparse clusters.
func ablationAlpha(cfg Config) (*Table, error) {
	total := 100000
	if cfg.Quick {
		total = 20000
	}
	b := total / 100
	tr := trials(cfg)
	t := &Table{
		Columns: []string{"alpha", "found (of 10)"},
		Notes:   []string{fmt.Sprintf("2-d, %d base points, 10 clusters (10x density, 20x size), 10%% noise, sample %d, %d trial(s)", total, b, tr)},
	}
	for _, alpha := range []float64{-2, -1, -0.5, -0.25, 0, 0.5, 1, 2} {
		alpha := alpha
		found, err := avgOver(cfg, tr, func(rng *stats.RNG) (int, error) {
			l := varDensityWorkload(2, total, 0.10, rng)
			v, _, err := biasedFoundProfile(l, alpha, b, kde.DefaultNumKernels, 10, rng, noisyProfile(alpha))
			return v, err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{ftoa(alpha), ftoa(found)})
	}
	return t, nil
}

// ablationWeights quantifies §3.1's weighting prescription: k-means on a
// sparse-biased sample recovers the true centroids only when the sample
// is weighted by inverse inclusion probabilities.
func ablationWeights(cfg Config) (*Table, error) {
	total := 40000
	if cfg.Quick {
		total = 10000
	}
	rng := stats.NewRNG(cfg.Seed)
	// Two blobs, 9:1 point ratio, equal spreads: a=-0.5 overrepresents
	// the light blob; unweighted k-means then drifts the heavy center.
	heavy := geom.Point{0.25, 0.25}
	light := geom.Point{0.75, 0.75}
	clusters := []synth.Cluster{
		{Shape: synth.GaussianShape{Center: heavy, Sigma: 0.05}, Size: total * 9 / 10},
		{Shape: synth.GaussianShape{Center: light, Sigma: 0.05}, Size: total / 10},
	}
	l := synth.Generate(clusters, geom.UnitCube(2), 0, rng)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: kde.DefaultNumKernels}, rng)
	if err != nil {
		return nil, err
	}
	s, err := core.Draw(ds, est, core.Options{Alpha: -0.5, TargetSize: 1000}, rng)
	if err != nil {
		return nil, err
	}

	centerErr := func(centers []geom.Point) float64 {
		var worst float64
		for _, truth := range []geom.Point{heavy, light} {
			best := math.Inf(1)
			for _, c := range centers {
				if d := geom.Distance(truth, c); d < best {
					best = d
				}
			}
			if best > worst {
				worst = best
			}
		}
		return worst
	}

	weightedRes, err := kmeans.Run(s.Points, kmeans.Options{K: 2}, rng)
	if err != nil {
		return nil, err
	}
	// Same sample with the weights stripped (every point weight 1).
	unweightedPts := make([]dataset.WeightedPoint, len(s.Points))
	for i, wp := range s.Points {
		unweightedPts[i] = dataset.WeightedPoint{P: wp.P, W: 1}
	}
	unweightedRes, err := kmeans.Run(unweightedPts, kmeans.Options{K: 2}, rng)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Columns: []string{"variant", "worst center error"},
		Notes: []string{
			fmt.Sprintf("two gaussian blobs 9:1, %d points, a=-0.5 sample of %d", total, len(s.Points)),
		},
	}
	t.Rows = append(t.Rows,
		[]string{"inverse-probability weights", ftoa(centerErr(weightedRes.Centers))},
		[]string{"unweighted", ftoa(centerErr(unweightedRes.Centers))},
	)
	return t, nil
}

// clusterAndScore clusters sample points with the shared CURE settings
// and scores against ground truth with the 90% representative rule.
func clusterAndScore(l *synth.Labeled, pts []geom.Point, k int) (int, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("experiments: empty sample")
	}
	clusters, err := cure.Run(pts, cureOptions(k, len(pts)))
	if err != nil {
		return 0, err
	}
	return eval.CountTrue(eval.FoundByReps(repsOf(clusters), l.Clusters, eval.DefaultRepFraction)), nil
}

// ablationEstimator swaps the density estimator feeding the sampler —
// kernels (the paper's choice), a multi-dimensional histogram, and the
// hash-grid — exercising the decoupling claim of §1.1 and the §2.1
// argument that kernels estimate density most accurately.
func ablationEstimator(cfg Config) (*Table, error) {
	total := 100000
	if cfg.Quick {
		total = 20000
	}
	b := total / 50
	tr := trials(cfg)
	t := &Table{
		Columns: []string{"estimator", "found (of 10)"},
		Notes:   []string{fmt.Sprintf("2-d, %d base points + 50%% noise, a=1, sample %d, %d trial(s)", total, b, tr)},
	}
	type variant struct {
		name  string
		build func(l *synth.Labeled, rng *stats.RNG) (core.DensityEstimator, error)
	}
	variants := []variant{
		{"kde (1000 kernels)", func(l *synth.Labeled, rng *stats.RNG) (core.DensityEstimator, error) {
			return kde.Build(l.Dataset(), kde.Options{NumKernels: kde.DefaultNumKernels}, rng)
		}},
		{"histogram (32/dim)", func(l *synth.Labeled, rng *stats.RNG) (core.DensityEstimator, error) {
			return histogram.Build(l.Dataset(), l.Domain)
		}},
		{"hash grid (64/dim)", func(l *synth.Labeled, rng *stats.RNG) (core.DensityEstimator, error) {
			return gridsample.BuildGrid(l.Dataset(), l.Domain, gridsample.Options{})
		}},
	}
	for _, v := range variants {
		v := v
		found, err := avgOver(cfg, tr, func(rng *stats.RNG) (int, error) {
			l := noiseWorkload(2, total, 0.50, rng)
			est, err := v.build(l, rng)
			if err != nil {
				return 0, err
			}
			s, err := core.Draw(l.Dataset(), est, core.Options{Alpha: 1, TargetSize: b}, rng)
			if err != nil {
				return 0, err
			}
			return clusterAndScore(l, s.PlainPoints(), 10)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{v.name, ftoa(found)})
	}
	return t, nil
}

// ablationPartitions measures CURE's partitioning speedup on a large
// biased sample: pre-clustering p partitions cuts the quadratic merge cost
// roughly by p while the final quality holds — the speedup §4.2 declines
// to use ("we use one partition") but the implementation supports.
func ablationPartitions(cfg Config) (*Table, error) {
	total := 500000
	b := 6000
	if cfg.Quick {
		total = 50000
		b = 1500
	}
	rng := stats.NewRNG(cfg.Seed)
	l := noiseWorkload(2, total, 0.10, rng)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: kde.DefaultNumKernels}, rng)
	if err != nil {
		return nil, err
	}
	s, err := core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: b}, rng)
	if err != nil {
		return nil, err
	}
	pts := s.PlainPoints()
	t := &Table{
		Columns: []string{"partitions", "cluster sec", "found (of 10)"},
		Notes:   []string{fmt.Sprintf("biased a=1 sample of %d from %d points + 10%% noise; reduction 4", len(pts), total)},
	}
	for _, parts := range []int{1, 2, 4, 8} {
		var clusters []cure.Cluster
		dur, err := timed(func() error {
			var cerr error
			clusters, cerr = cure.RunPartitioned(pts, cureOptions(10, len(pts)), parts, 4)
			return cerr
		})
		if err != nil {
			return nil, err
		}
		found := eval.CountTrue(eval.FoundByReps(repsOf(clusters), l.Clusters, eval.DefaultRepFraction))
		t.Rows = append(t.Rows, []string{itoa(parts), secs(dur), itoa(found)})
	}
	return t, nil
}
