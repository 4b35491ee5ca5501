package repro

// Benchmark harness: one benchmark per table/figure of the paper (see
// DESIGN.md §4 for the experiment index) plus micro-benchmarks for the
// performance-critical primitives. The per-figure benchmarks run the
// experiment pipelines in the quick profile so `go test -bench=.`
// completes in minutes; set REPRO_FULL=1 to run the paper-scale workloads
// (tens of minutes — this is what EXPERIMENTS.md records).

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/cure"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/kde"
	"repro/internal/kdtree"
	"repro/internal/obs"
	"repro/internal/outlier"
	"repro/internal/stats"
	"repro/internal/synth"
)

func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, Quick: os.Getenv("REPRO_FULL") == ""}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + tb.String())
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkThm1(b *testing.B)       { benchExperiment(b, "thm1") }
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4a(b *testing.B)      { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)      { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)      { benchExperiment(b, "fig4c") }
func BenchmarkFig5a(b *testing.B)      { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)      { benchExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)      { benchExperiment(b, "fig5c") }
func BenchmarkFig6(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkScale(b *testing.B)      { benchExperiment(b, "scale") }
func BenchmarkOutliers(b *testing.B)   { benchExperiment(b, "outliers") }
func BenchmarkGeo(b *testing.B)        { benchExperiment(b, "geo") }
func BenchmarkSampleSize(b *testing.B) { benchExperiment(b, "samplesize") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationKernel(b *testing.B)     { benchExperiment(b, "ablation-kernel") }
func BenchmarkAblationOnePass(b *testing.B)    { benchExperiment(b, "ablation-onepass") }
func BenchmarkAblationAlpha(b *testing.B)      { benchExperiment(b, "ablation-alpha") }
func BenchmarkAblationWeights(b *testing.B)    { benchExperiment(b, "ablation-weights") }
func BenchmarkAblationEstimator(b *testing.B)  { benchExperiment(b, "ablation-estimator") }
func BenchmarkAblationPartitions(b *testing.B) { benchExperiment(b, "ablation-partitions") }

// Extension bench: the §5 future-work decision-tree pipeline.
func BenchmarkExtDtree(b *testing.B) { benchExperiment(b, "ext-dtree") }

// Micro-benchmarks for the primitives the pipelines are built from.

func benchDataset(n int) *dataset.InMemory {
	rng := stats.NewRNG(99)
	l := synth.EqualClusters(10, 2, n, 0.10, rng)
	return l.Dataset()
}

func BenchmarkKDEBuild(b *testing.B) {
	ds := benchDataset(100000)
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kde.Build(ds, kde.Options{NumKernels: 1000}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKDEDensity(b *testing.B) {
	ds := benchDataset(100000)
	rng := stats.NewRNG(1)
	est, err := kde.Build(ds, kde.Options{NumKernels: 1000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	pts := ds.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Density(pts[i%len(pts)])
	}
}

func BenchmarkKDEIntegrateBall(b *testing.B) {
	ds := benchDataset(100000)
	rng := stats.NewRNG(1)
	est, err := kde.Build(ds, kde.Options{NumKernels: 1000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	pts := ds.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.IntegrateBall(pts[i%len(pts)], 0.05)
	}
}

func BenchmarkBiasedSample(b *testing.B) {
	ds := benchDataset(100000)
	rng := stats.NewRNG(1)
	est, err := kde.Build(ds, kde.Options{NumKernels: 1000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: 1000}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrawParallel measures the exact two-pass draw on 100k 4-d
// points across worker counts; the drawn sample is identical for every
// count (see internal/core/parallel_test.go), only wall-clock differs.
// BENCH_parallel.json records the before/after numbers.
func BenchmarkDrawParallel(b *testing.B) {
	rng := stats.NewRNG(99)
	l := synth.EqualClusters(10, 4, 100000, 0.10, rng)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: 1000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Alpha: 1, TargetSize: 1000, Parallelism: p}
				if _, err := core.Draw(ds, est, opts, stats.NewRNG(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDrawObs guards the observability layer's overhead: the same
// exact two-pass draw with the Recorder disabled (nil handles on the hot
// paths) and enabled (atomic flushes per block/batch). The disabled
// variant is the one the 2% budget applies to — it must stay within noise
// of the pre-observability numbers in BENCH_parallel.json; BENCH_obs.json
// records both. The enabled draw's density batches count the kde
// traversal into the same Recorder, so this measures the full
// instrumented path.
func BenchmarkDrawObs(b *testing.B) {
	rng := stats.NewRNG(99)
	l := synth.EqualClusters(10, 4, 100000, 0.10, rng)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: 1000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var rec *obs.Recorder
				if enabled {
					rec = obs.New()
				}
				opts := core.Options{Alpha: 1, TargetSize: 1000, Parallelism: 1, Obs: rec}
				if _, err := core.Draw(ds, est, opts, stats.NewRNG(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDensityBatch measures the amortized batch evaluation path that
// Draw's scoring loop uses (fused kernel, reusable traversal buffers)
// against the per-point Density baseline above.
func BenchmarkDensityBatch(b *testing.B) {
	ds := benchDataset(100000)
	rng := stats.NewRNG(1)
	est, err := kde.Build(ds, kde.Options{NumKernels: 1000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	pts := ds.Points()[:4096]
	out := make([]float64, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.DensityBatch(pts, out, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
}

func BenchmarkUniformSample(b *testing.B) {
	ds := benchDataset(100000)
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Bernoulli(ds, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCURE2000(b *testing.B) {
	rng := stats.NewRNG(2)
	l := synth.EqualClusters(10, 2, 50000, 0.10, rng)
	pts, err := dataset.Bernoulli(l.Dataset(), 2000, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cure.Run(pts, cure.Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKDTreeNearest(b *testing.B) {
	ds := benchDataset(100000)
	tree := kdtree.Build(ds.Points())
	pts := ds.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(pts[i%len(pts)])
	}
}

func BenchmarkKDTreeCountWithin(b *testing.B) {
	ds := benchDataset(100000)
	tree := kdtree.Build(ds.Points())
	pts := ds.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.CountWithin(pts[i%len(pts)], 0.02, 100)
	}
}

func BenchmarkOutlierApprox(b *testing.B) {
	rng := stats.NewRNG(3)
	l := synth.EqualClusters(5, 2, 20000, 0, rng)
	synth.PlantOutliers(l, 20, 0.08, rng)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: 500}, rng)
	if err != nil {
		b.Fatal(err)
	}
	prm := outlier.Params{K: 0.04, P: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := outlier.Approximate(ds, est, prm, outlier.ApproxOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReservoir(b *testing.B) {
	ds := benchDataset(100000)
	rng := stats.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Reservoir(ds, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}
