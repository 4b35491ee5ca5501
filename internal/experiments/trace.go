package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

func init() {
	register("trace", "request tracing overhead: exact draw untraced vs recorder-only vs fully traced", traceExp)
}

// traceExp measures what request-scoped tracing costs the exact
// two-pass biased draw, on top of the Recorder it forwards through.
// Three configurations run the same workload from the same seed: fully
// disabled (nil Recorder, nil trace — the production default), a
// Recorder with no trace attached (the PR 2 baseline BENCH_obs.json
// guards), and a Recorder forwarding every span open/close into a live
// Trace (what a sampled request pays). Draws are checked bit-identical
// across configurations — tracing consumes no RNG state — and the
// BENCH entries back BENCH_trace.json and the verify.sh TRACE_GUARD.
func traceExp(cfg Config) (*Table, error) {
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
		{"obs", obs.New},
		{"traced", func() *obs.Recorder {
			rec := obs.New()
			rec.SetTrace(trace.New("bench"))
			return rec
		}},
	}

	t := &Table{
		Columns: []string{"tracing", "ns/op", "points/sec", "relative", "same sample"},
		Notes: []string{
			fmt.Sprintf("exact two-pass draw, n = %d, d = 4, a = 1, b = 1000, 500 kernels, best of %d iters", n, iters),
			"relative is ns/op vs the disabled row; traced pays recorder + span forwarding",
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
		} else if identical, err = drawParity("trace", c.name, ref, s); err != nil {
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
			Name:         "DrawExact_trace_" + c.name,
			Iters:        iters,
			NsPerOp:      best,
			PointsPerSec: float64(n) / sec,
			Speedup:      float64(refNs) / float64(best),
		})
	}
	return t, nil
}
