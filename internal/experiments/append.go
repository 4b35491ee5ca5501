package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("append", "incremental ingestion: full rebuild vs delta extend after append", appendExp)
}

// appendExp measures what the incremental ingestion path buys when a
// dataset grows by a small delta and a sample of the prior prefix is
// already in hand. For each delta fraction, "full" rebuilds the estimator
// and redraws the sample over all n' points (what a server without delta
// builds must do after an append), while "incremental" reservoir-picks
// delta centers, extends the cached estimator, and runs core.ExtendDraw —
// passes over the delta only. Both paths are timed end to end; the
// speedup column is full over incremental.
func appendExp(cfg Config) (*Table, error) {
	n := 200000
	if cfg.Quick {
		n = 25000
	}
	const (
		ks    = 500
		b     = 1000
		alpha = 1.0
		iters = 2 // timed twice, min taken: enough for a >5x signal
	)
	fractions := []float64{0.01, 0.05}

	// One generation per fraction: base points plus the largest delta,
	// sliced so every run sees identical data.
	maxDelta := int(float64(n) * fractions[len(fractions)-1])
	setup := stats.NewRNG(cfg.Seed)
	all := synth.EqualClusters(10, 4, n+maxDelta, 0.10, setup).Dataset().Points()

	t := &Table{
		Columns: []string{"delta", "path", "ms", "speedup"},
		Notes: []string{
			fmt.Sprintf("n = %d, d = 4, a = %g, b = %d, %d kernels; delta appended as one generation", n, alpha, b, ks),
			"full = kde.Build + core.Draw over all n' points; incremental = Reservoir(delta) + Estimator.Extend + core.ExtendDraw",
			"both paths start from the same cached prior (estimator + sample of the first n points); times are min of 2 runs",
		},
	}

	for _, frac := range fractions {
		m := int(float64(n) * frac)
		base, err := dataset.NewInMemory(clonePoints(all[:n]))
		if err != nil {
			return nil, err
		}
		if err := base.Append(clonePoints(all[n : n+m])...); err != nil {
			return nil, err
		}
		full, err := dataset.GenView(base, 1)
		if err != nil {
			return nil, err
		}
		delta, err := dataset.DeltaView(base, 1)
		if err != nil {
			return nil, err
		}
		prefix, err := dataset.GenView(base, 0)
		if err != nil {
			return nil, err
		}

		// The shared prior: estimator and sample of the first n points,
		// built once outside the timed region (a serving cache hit).
		streams := stats.NewRNG(cfg.Seed ^ 0xa99e).Splits(4)
		prior, err := kde.Build(prefix, kde.Options{NumKernels: ks, Obs: cfg.Obs}, streams[0])
		if err != nil {
			return nil, err
		}
		priorSample, err := core.Draw(prefix, prior, core.Options{
			Alpha: alpha, TargetSize: b, Parallelism: cfg.Parallelism, Obs: cfg.Obs,
		}, streams[1])
		if err != nil {
			return nil, err
		}
		priorNorm := core.NormState{K: priorSample.Norm, N: n, Kernels: prior.NumKernels()}

		fullNs, err := timeMin(iters, func(rng *stats.RNG) error {
			st := rng.Splits(2)
			est, berr := kde.Build(full, kde.Options{NumKernels: ks, Obs: cfg.Obs}, st[0])
			if berr != nil {
				return berr
			}
			_, derr := core.Draw(full, est, core.Options{
				Alpha: alpha, TargetSize: b, Parallelism: cfg.Parallelism, Obs: cfg.Obs,
			}, st[1])
			return derr
		}, streams[2])
		if err != nil {
			return nil, err
		}

		incNs, err := timeMin(iters, func(rng *stats.RNG) error {
			st := rng.Splits(2)
			est, xerr := prior.ExtendDelta(delta, st[0])
			if xerr != nil {
				return xerr
			}
			_, _, derr := core.ExtendDraw(full, est, core.ExtendOptions{
				Options: core.Options{
					Alpha: alpha, TargetSize: b, Parallelism: cfg.Parallelism, Obs: cfg.Obs,
				},
				DeltaStart: n,
				Prior:      priorSample,
				PriorNorm:  priorNorm,
			}, st[1])
			return derr
		}, streams[3])
		if err != nil {
			return nil, err
		}

		speedup := fullNs / incNs
		label := fmt.Sprintf("%g%%", frac*100)
		ms := func(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }
		t.Rows = append(t.Rows,
			[]string{label, "full", ms(fullNs), "1.000x"},
			[]string{label, "incremental", ms(incNs), fmt.Sprintf("%.3fx", speedup)},
		)
		pct := int(frac * 100)
		t.Benchmarks = append(t.Benchmarks,
			BenchResult{Name: fmt.Sprintf("Append_full_%dpct", pct), Iters: iters, NsPerOp: int64(fullNs), PointsPerSec: float64(n+m) / (fullNs / 1e9), Speedup: 1},
			BenchResult{Name: fmt.Sprintf("Append_incremental_%dpct", pct), Iters: iters, NsPerOp: int64(incNs), PointsPerSec: float64(m) / (incNs / 1e9), Speedup: speedup},
		)
	}
	return t, nil
}

// timeMin runs fn iters times with independent RNG streams and returns
// the minimum wall-clock nanoseconds — the usual best-of-k benchmark
// discipline, robust to one-off scheduler noise.
func timeMin(iters int, fn func(rng *stats.RNG) error, rng *stats.RNG) (float64, error) {
	streams := rng.Splits(iters)
	best := 0.0
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := fn(streams[i]); err != nil {
			return 0, err
		}
		ns := float64(time.Since(start).Nanoseconds())
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// clonePoints deep-copies a point slice so generational appends never
// alias the generator's backing array.
func clonePoints(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}
