package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("obs", "observability overhead: exact draw with the Recorder disabled vs enabled vs traced", obsExp)
}

// obsExp measures what attaching a Recorder costs the exact two-pass
// biased draw. Three configurations run over the same workload from the
// same seed: the disabled state (nil Recorder — the hot paths' no-op
// handles), an enabled Recorder, and a traced one that also logs every
// span occurrence (what a traced request pays). The draws must be
// bit-identical across configurations — the layer's non-perturbation
// guarantee; a divergent draw fails the experiment — and the table reports
// the relative cost of each enabled configuration against the disabled
// reference. The BENCH entries back BENCH_obs.json and the verify.sh
// OBS_GUARD and TRACE_GUARD overhead guards.
func obsExp(cfg Config) (*Table, error) {
	n := 100000
	// Best-of-10: the relative column compares ~55ms draws, where scheduler
	// noise alone is a few percent per run.
	iters := 10
	if cfg.Quick {
		n = 20000
		iters = 2
	}
	setup := stats.NewRNG(cfg.Seed)
	l := synth.EqualClusters(10, 4, n, 0.10, setup)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: 500}, setup)
	if err != nil {
		return nil, err
	}

	type config struct {
		name string
		rec  func() *obs.Recorder
	}
	configs := []config{
		{"disabled", func() *obs.Recorder { return nil }},
		{"enabled", obs.New},
		{"traced", func() *obs.Recorder { return obs.NewTraced("bench") }},
	}

	t := &Table{
		Columns: []string{"recorder", "ns/op", "points/sec", "relative", "same sample"},
		Notes: []string{
			fmt.Sprintf("exact two-pass draw, n = %d, d = 4, a = 1, b = 1000, 500 kernels, best of %d iters", n, iters),
			"relative is ns/op vs the disabled row; 1.02x means 2% overhead",
		},
	}
	// Iterations interleave round-robin across configurations so a drift
	// in machine load lands on every configuration's best-of window, not
	// on whichever happened to run last.
	bests := make([]int64, len(configs))
	samples := make([]*core.Sample, len(configs))
	for it := 0; it < iters; it++ {
		for ci, c := range configs {
			rec := c.rec()
			// SetRecorder attaches or detaches the estimator's counter
			// handles, so one estimator serves every configuration.
			est.SetRecorder(rec)
			var cur *core.Sample
			d, err := timed(func() error {
				var derr error
				cur, derr = core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: 1000, Parallelism: cfg.Parallelism, Obs: rec}, stats.NewRNG(cfg.Seed))
				return derr
			})
			if err != nil {
				return nil, err
			}
			if bests[ci] == 0 || d.Nanoseconds() < bests[ci] {
				bests[ci] = d.Nanoseconds()
			}
			samples[ci] = cur
		}
	}
	est.SetRecorder(nil)
	var ref *core.Sample
	var refNs int64
	for ci, c := range configs {
		s, best := samples[ci], bests[ci]
		sec := float64(best) / 1e9
		identical := "ref"
		if ref == nil {
			ref, refNs = s, best
		} else if identical, err = drawParity("obs", c.name, ref, s); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", best),
			fmt.Sprintf("%.0f", float64(n)/sec),
			fmt.Sprintf("%.3fx", float64(best)/float64(refNs)),
			identical,
		})
		t.Benchmarks = append(t.Benchmarks, BenchResult{
			Name:         "DrawExact_obs_" + c.name,
			Iters:        iters,
			NsPerOp:      best,
			PointsPerSec: float64(n) / sec,
			Speedup:      float64(refNs) / float64(best),
		})
	}
	return t, nil
}
