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
// reference. The BENCH entries back BENCH_obs.json; the OBS_GUARD
// overhead guard runs the same measurement through ObsTimes.
func obsExp(cfg Config) (*Table, error) {
	// Best-of-10: the relative column compares ~55ms draws, where scheduler
	// noise alone is a few percent per run.
	iters := 10
	if cfg.Quick {
		iters = 2
	}
	times, err := ObsTimes(cfg, iters)
	if err != nil {
		return nil, err
	}
	n := obsPoints(cfg)
	t := &Table{
		Columns: []string{"recorder", "ns/op", "points/sec", "relative", "same sample"},
		Notes: []string{
			fmt.Sprintf("exact two-pass draw, n = %d, d = 4, a = 1, b = 1000, 500 kernels, best of %d iters", n, iters),
			"relative is ns/op vs the disabled row; 1.02x means 2% overhead",
		},
	}
	var refNs int64
	for ci, name := range ObsConfigs {
		best := times[0][ci]
		for _, it := range times[1:] {
			best = min(best, it[ci])
		}
		sec := float64(best) / 1e9
		identical := "yes"
		if ci == 0 {
			identical, refNs = "ref", best
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", best),
			fmt.Sprintf("%.0f", float64(n)/sec),
			fmt.Sprintf("%.3fx", float64(best)/float64(refNs)),
			identical,
		})
		t.Benchmarks = append(t.Benchmarks, BenchResult{
			Name:         "DrawExact_obs_" + name,
			Iters:        iters,
			NsPerOp:      best,
			PointsPerSec: float64(n) / sec,
			Speedup:      float64(refNs) / float64(best),
		})
	}
	return t, nil
}

// ObsConfigs names the obs experiment's recorder configurations in the
// order ObsTimes reports them: the disabled reference first.
var ObsConfigs = [3]string{"disabled", "enabled", "traced"}

func obsPoints(cfg Config) int {
	if cfg.Quick {
		return 20000
	}
	return 100000
}

// ObsTimes runs the obs experiment's exact draw iters times under each
// configuration of ObsConfigs and returns the draw times in nanoseconds,
// times[it][c] for configuration c in iteration it. Iteration it runs
// the configurations in an order rotated by it, so a drift in machine
// load lands on every configuration alike and each iteration pairs the
// three under the same conditions. Every draw must be bit-identical to
// the first disabled one; a divergent draw is an error. So is an enabled
// or traced draw that records no kernel evaluation: the draw's density
// batches count into its Options.Obs, and a configuration that left them
// uncounted would time less than the instrumented path.
func ObsTimes(cfg Config, iters int) ([][3]int64, error) {
	setup := stats.NewRNG(cfg.Seed)
	l := synth.EqualClusters(10, 4, obsPoints(cfg), 0.10, setup)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: 500}, setup)
	if err != nil {
		return nil, err
	}
	recorders := [3]func() *obs.Recorder{
		func() *obs.Recorder { return nil },
		obs.New,
		func() *obs.Recorder { return obs.NewTraced("bench") },
	}
	var ref *core.Sample
	times := make([][3]int64, iters)
	for it := range times {
		for k := range recorders {
			ci := (it + k) % len(recorders)
			rec := recorders[ci]()
			var cur *core.Sample
			d, err := timed(func() error {
				var derr error
				cur, derr = core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: 1000, Parallelism: cfg.Parallelism, Obs: rec}, stats.NewRNG(cfg.Seed))
				return derr
			})
			if err != nil {
				return nil, err
			}
			times[it][ci] = d.Nanoseconds()
			if rec != nil && rec.Counter(obs.CtrKernelEvals).Value() == 0 {
				return nil, fmt.Errorf("obs: the %s draw recorded no kernel evaluation", ObsConfigs[ci])
			}
			if ref == nil {
				ref = cur
			} else if _, err := drawParity("obs", ObsConfigs[ci], ref, cur); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}
