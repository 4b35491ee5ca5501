package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gridsample"
	"repro/internal/kde"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/synth"
)

func init() {
	register("stream", "streaming density at matched memory: CM-sketch vs ASG vs KDE vs hash grid", expStream)
}

// expStream compares the bounded-memory streaming estimators against the
// paper's KDE sampler and the Palmer-Faloutsos hash grid at matched byte
// budgets. Every method feeds the same density-biased sampler (a=1) over
// the 30%-noise workload; the score is how many of the 10 planted
// clusters CURE recovers from the sample. Memory is what the density
// state costs: the sketch rows (plus the probe reservoir) for the
// streaming estimators, kernel centers + bandwidth for KDE (the kd-tree
// roughly doubles this), and the bucket table for the grid. The
// streaming estimators build their state in ONE forward pass over the
// stream — the others need the dataset at rest.
func expStream(cfg Config) (*Table, error) {
	total := 100000
	if cfg.Quick {
		total = 20000
	}
	b := total / 50
	tr := trials(cfg)
	budgets := []int{64 << 10, 256 << 10}
	if cfg.Quick {
		budgets = budgets[:1]
	}
	t := &Table{
		Columns: []string{"method", "budget", "bytes", "found (of 10)", "sample"},
		Notes: []string{
			fmt.Sprintf("2-d, %d base points + 30%% noise, a=1, target sample %d, %d trial(s)", total, b, tr),
			"bytes = density state actually allocated at that budget (KDE excludes its kd-tree)",
			"sketch and ASG build in one stream pass; KDE and grid need the data at rest",
		},
	}

	const d = 2
	for _, budget := range budgets {
		type variant struct {
			name   string
			sample func(l *synth.Labeled, rng *stats.RNG) (pts int, bytes int, found int, err error)
		}
		sketchVariant := func(name string, shifts int) variant {
			return variant{name, func(l *synth.Labeled, rng *stats.RNG) (int, int, int, error) {
				// 8 bytes per counter, depth rows per shift; the probe
				// reservoir rides on top and is counted by Bytes().
				depth := 4
				width := budget / (8 * depth * shifts)
				est, err := stream.New(l.Domain, stream.Options{
					Width: width, Depth: depth, Shifts: shifts, Seed: rng.Uint64(),
				})
				if err != nil {
					return 0, 0, 0, err
				}
				if err := est.Observe(l.Points); err != nil {
					return 0, 0, 0, err
				}
				s, err := core.Draw(l.Dataset(), est, core.Options{Alpha: 1, TargetSize: b}, rng)
				if err != nil {
					return 0, 0, 0, err
				}
				found, err := clusterAndScore(l, s.PlainPoints(), 10)
				return len(s.Points), est.Bytes(), found, err
			}}
		}
		variants := []variant{
			sketchVariant("sketch-DBS", 1),
			sketchVariant("asg-DBS", 4),
			{"kde-DBS", func(l *synth.Labeled, rng *stats.RNG) (int, int, int, error) {
				// (d+1) float64s per kernel: center + bandwidth share.
				kernels := budget / ((d + 1) * 8)
				est, err := kde.Build(l.Dataset(), kde.Options{NumKernels: kernels}, rng)
				if err != nil {
					return 0, 0, 0, err
				}
				s, err := core.Draw(l.Dataset(), est, core.Options{Alpha: 1, TargetSize: b}, rng)
				if err != nil {
					return 0, 0, 0, err
				}
				found, err := clusterAndScore(l, s.PlainPoints(), 10)
				return len(s.Points), kernels * (d + 1) * 8, found, err
			}},
			{"gridsample", func(l *synth.Labeled, rng *stats.RNG) (int, int, int, error) {
				res, err := gridsample.Draw(l.Dataset(), l.Domain, gridsample.Options{
					Exponent: 2, TargetSize: b, MemoryBytes: budget,
				}, rng)
				if err != nil {
					return 0, 0, 0, err
				}
				pts := make([]geom.Point, len(res.Points))
				for i, wp := range res.Points {
					pts[i] = wp.P
				}
				if len(pts) == 0 {
					return 0, 0, 0, fmt.Errorf("experiments: empty grid sample")
				}
				found, err := clusterAndScore(l, pts, 10)
				return len(pts), res.Bytes, found, err
			}},
		}
		for _, v := range variants {
			var sampleSum, byteSum int
			found, err := avgOver(cfg, tr, func(rng *stats.RNG) (int, error) {
				l := noiseWorkload(d, total, 0.30, rng)
				n, bytes, fnd, err := v.sample(l, rng)
				if err != nil {
					return 0, err
				}
				sampleSum += n
				byteSum = bytes
				return fnd, nil
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				v.name,
				fmt.Sprintf("%dKiB", budget>>10),
				itoa(byteSum),
				ftoa(found),
				itoa(sampleSum / tr),
			})
		}
	}
	return t, nil
}
