package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/kde"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("parallel", "parallel draw throughput: points/sec and speedup vs one worker", parallelExp)
}

// parallelExp measures the exact two-pass biased draw under the parallel
// execution layer. Every worker count draws from the same seed and the
// table reports wall-clock (best of reps), scan throughput, and speedup
// over the serial reference. cfg.Parallelism (dbsbench -p), when above the
// default sweep, is measured as an extra row.
//
// Two contracts are asserted, not just reported:
//
//   - determinism: every draw must be byte-identical to the serial
//     reference, or the experiment fails;
//   - scaling: two workers must not run slower than one beyond a noise
//     allowance (wall-clock p2 ≤ 1.3 × p1, best of reps). This pins the
//     fix for the regression where DrawParallel/2 (238.8ms) lost to
//     DrawParallel/1 (210.9ms).
//
// The scaling assertion fails the experiment only in the full profile;
// the quick profile's workloads are too small to time reliably.
func parallelExp(cfg Config) (*Table, error) {
	n, reps := 100000, 3
	if cfg.Quick {
		n, reps = 20000, 1
	}
	setup := stats.NewRNG(cfg.Seed)
	l := synth.EqualClusters(10, 4, n, 0.10, setup)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: 500}, setup)
	if err != nil {
		return nil, err
	}

	workers := []int{1, 2, 4}
	max := cfg.Parallelism
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	if max > workers[len(workers)-1] {
		workers = append(workers, max)
	}

	t := &Table{
		Columns: []string{"workers", "sec", "points/sec", "speedup", "same sample"},
		Notes: []string{
			fmt.Sprintf("exact two-pass draw, n = %d, d = 4, a = 1, b = 1000, 500 kernels, best of %d reps", n, reps),
			fmt.Sprintf("GOMAXPROCS = %d; speedup is wall-clock vs the workers=1 row", runtime.GOMAXPROCS(0)),
		},
	}
	var ref *core.Sample
	var refSec float64
	secByWorkers := map[int]float64{}
	for _, p := range workers {
		// Best-of is sound: the sample is identical across reps by the
		// determinism contract.
		var s *core.Sample
		var sec float64
		for r := 0; r < reps; r++ {
			var cur *core.Sample
			d, err := timed(func() error {
				var derr error
				cur, derr = core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: 1000, Parallelism: p, Obs: cfg.Obs}, stats.NewRNG(cfg.Seed))
				return derr
			})
			if err != nil {
				return nil, err
			}
			if r == 0 || d.Seconds() < sec {
				s, sec = cur, d.Seconds()
			}
		}
		secByWorkers[p] = sec
		identical := "ref"
		if ref == nil {
			ref, refSec = s, sec
		} else if identical, err = drawParity("parallel", fmt.Sprintf("workers=%d", p), ref, s); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(p), fmt.Sprintf("%.3f", sec),
			fmt.Sprintf("%.0f", float64(ds.Len())/sec),
			fmt.Sprintf("%.2fx", refSec/sec),
			identical,
		})
		t.Benchmarks = append(t.Benchmarks, BenchResult{
			Name:         fmt.Sprintf("DrawParallel/%d", p),
			Iters:        reps,
			NsPerOp:      int64(sec * 1e9),
			PointsPerSec: float64(ds.Len()) / sec,
			Speedup:      refSec / sec,
		})
	}

	// Worker-scaling pin: adding a second worker must never cost more than
	// the noise allowance over one.
	ratio := secByWorkers[2] / secByWorkers[1]
	check := "PASS"
	if ratio > 1.3 {
		check = "FAIL"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("scaling check: workers=2 vs workers=1 wall-clock ratio %.2f (bound 1.30) — %s", ratio, check))
	if check == "FAIL" && !cfg.Quick {
		return nil, fmt.Errorf("parallel: worker-scaling regression: workers=2 took %.2fx workers=1 (bound 1.30)", ratio)
	}
	return t, nil
}

// sameDraw reports whether two draws are byte-identical in every field the
// determinism guarantee covers.
func sameDraw(a, b *core.Sample) bool {
	if a.Norm != b.Norm || a.Saturated != b.Saturated || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i].W != b.Points[i].W || !a.Points[i].P.Equal(b.Points[i].P) {
			return false
		}
	}
	return true
}

// drawParity is the "same sample" cell of a draw compared against its
// experiment's reference: "yes" when the two are byte-identical. A
// divergent draw is an error naming the experiment and configuration, so
// the run fails instead of reporting a mismatch and exiting 0.
func drawParity(exp, config string, ref, s *core.Sample) (string, error) {
	if !sameDraw(ref, s) {
		return "", fmt.Errorf("%s: %s draw diverged from the reference", exp, config)
	}
	return "yes", nil
}
