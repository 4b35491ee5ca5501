package repro

import (
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// TestObsOverheadGuard is the CI guard on the observability layer's cost:
// it runs the "obs" experiment's exact draw with the Recorder disabled,
// enabled, and traced (logging every span occurrence), 31 interleaved
// iterations with the configuration order rotated each time, and fails
// when any draw diverges from the reference sample or when the median
// over iterations of either paired ratio — enabled over disabled, traced
// over disabled — exceeds the budget. The interactive budget is 2%
// (BENCH_obs.json and BENCH_trace.json record the measured numbers); the
// guard allows 15% to absorb shared-CI timer noise while still catching
// a per-point atomic, a per-point trace write or a lock on the draw hot
// path, which cost far more. Pairing each iteration's draws and taking
// the median keeps one noisy moment on the host from failing the guard.
// Gated behind OBS_GUARD=1 because timing assertions are meaningless
// under -race or heavy parallel test load; verify.sh sets it.
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("OBS_GUARD") == "" {
		t.Skip("set OBS_GUARD=1 to run the timing guard (verify.sh does)")
	}
	times, err := experiments.ObsTimes(experiments.Config{Seed: 1, Quick: true, Parallelism: 1}, 31)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1.15
	for ci := 1; ci < len(experiments.ObsConfigs); ci++ {
		ratios := make([]float64, len(times))
		for it, ns := range times {
			ratios[it] = float64(ns[ci]) / float64(ns[0])
		}
		med := stats.Quantile(ratios, 0.5)
		t.Logf("%s/disabled: median %.3fx over %d paired iterations", experiments.ObsConfigs[ci], med, len(ratios))
		if med > budget {
			t.Errorf("%s draw costs a median %.3fx the disabled draw (budget %.2fx); ratios %.3f",
				experiments.ObsConfigs[ci], med, budget, ratios)
		}
	}
}
