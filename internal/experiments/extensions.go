package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("ext-dtree", "future work (§5): decision trees on weighted biased samples", extDtree)
}

// extDtree implements the paper's §5 suggestion that classification and
// decision-tree construction can benefit from biased sampling. The
// workload is a skewed classification problem: the minority class lives in
// a few small dense clusters inside a broad majority background. A uniform
// 1% sample contains a handful of minority examples; a dense-biased (a=1)
// sample concentrates on exactly the minority regions, and training with
// inverse-probability weights keeps the tree calibrated. Reported metrics:
// overall accuracy and minority-class recall on a held-out test set.
func extDtree(cfg Config) (*Table, error) {
	total := 100000
	if cfg.Quick {
		total = 20000
	}
	b := total / 100
	tr := trials(cfg)
	t := &Table{
		Columns: []string{"training set", "size", "accuracy", "minority recall"},
		Notes: []string{
			fmt.Sprintf("%d points, 2%% minority in 5 dense clusters, 1%% samples, %d trial(s)", total, tr),
		},
	}

	type resRow struct {
		acc, rec float64
		size     int
	}
	rows := map[string]*resRow{
		"full data":        {},
		"uniform sample":   {},
		"biased a=1 (wtd)": {},
	}

	for trial := 0; trial < tr; trial++ {
		rng := stats.NewRNG(cfg.Seed + uint64(trial)*7919)
		train := classificationWorkload(total, rng)
		testSet := classificationWorkload(total/4, rng)
		testPts, testLabels := splitExamples(testSet)

		evalTree := func(name string, ex []dtree.Example) error {
			tree, err := dtree.Train(ex)
			if err != nil {
				return err
			}
			r := rows[name]
			r.acc += tree.Accuracy(testPts, testLabels)
			r.rec += tree.Recall(testPts, testLabels, 1)
			r.size += len(ex)
			return nil
		}

		if err := evalTree("full data", train); err != nil {
			return nil, err
		}

		// Uniform 1% sample: keep each example with probability b/n.
		var uni []dtree.Example
		prob := float64(b) / float64(len(train))
		for _, e := range train {
			if rng.Bernoulli(prob) {
				uni = append(uni, e)
			}
		}
		if len(uni) == 0 {
			uni = train[:1]
		}
		if err := evalTree("uniform sample", uni); err != nil {
			return nil, err
		}

		// Biased 1% sample (a=1) with inverse-probability weights.
		pts := make([]geom.Point, len(train))
		for i, e := range train {
			pts[i] = e.P
		}
		l := &synth.Labeled{Points: pts}
		ds := l.Dataset()
		// Scott's rule smooths at ~0.09 here, wider than the 0.04 minority
		// clusters, which would blur their density peaks below the
		// background; a finer bandwidth lets the estimator resolve them.
		est, err := kde.Build(ds, kde.Options{NumKernels: kde.DefaultNumKernels, BandwidthScale: 0.25}, rng)
		if err != nil {
			return nil, err
		}
		s, err := core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: b}, rng)
		if err != nil {
			return nil, err
		}
		// Re-attach labels by exact coordinate lookup.
		byKey := map[string]int{}
		for _, e := range train {
			byKey[pointKey(e.P)] = e.Label
		}
		biased := make([]dtree.Example, 0, len(s.Points))
		for _, wp := range s.Points {
			lb, ok := byKey[pointKey(wp.P)]
			if !ok {
				continue
			}
			biased = append(biased, dtree.Example{P: wp.P, Label: lb, W: wp.W})
		}
		if len(biased) == 0 {
			return nil, fmt.Errorf("experiments: empty biased training sample")
		}
		if err := evalTree("biased a=1 (wtd)", biased); err != nil {
			return nil, err
		}
	}

	for _, name := range []string{"full data", "uniform sample", "biased a=1 (wtd)"} {
		r := rows[name]
		t.Rows = append(t.Rows, []string{
			name, itoa(r.size / tr), ftoa(r.acc / float64(tr)), ftoa(r.rec / float64(tr)),
		})
	}
	return t, nil
}

// classificationWorkload builds the skewed labelled dataset: 95% majority
// class uniform over the domain, 5% minority class concentrated in five
// small dense clusters.
func classificationWorkload(total int, rng *stats.RNG) []dtree.Example {
	minority := total / 50
	clusters := [][2]float64{{0.12, 0.75}, {0.85, 0.2}, {0.5, 0.5}, {0.2, 0.15}, {0.78, 0.82}}
	ex := make([]dtree.Example, 0, total)
	for i := 0; i < total-minority; i++ {
		ex = append(ex, dtree.Example{
			P: geom.Point{rng.Float64(), rng.Float64()}, Label: 0, W: 1,
		})
	}
	per := minority / len(clusters)
	for _, c := range clusters {
		for i := 0; i < per; i++ {
			ex = append(ex, dtree.Example{
				P:     geom.Point{c[0] + 0.03*rng.Float64(), c[1] + 0.03*rng.Float64()},
				Label: 1, W: 1,
			})
		}
	}
	rng.Shuffle(len(ex), func(i, j int) { ex[i], ex[j] = ex[j], ex[i] })
	return ex
}

func splitExamples(ex []dtree.Example) ([]geom.Point, []int) {
	pts := make([]geom.Point, len(ex))
	labels := make([]int, len(ex))
	for i, e := range ex {
		pts[i] = e.P
		labels[i] = e.Label
	}
	return pts, labels
}

func pointKey(p geom.Point) string {
	buf := make([]byte, 0, len(p)*8)
	for _, v := range p {
		bits := math.Float64bits(v)
		for s := 0; s < 8; s++ {
			buf = append(buf, byte(bits>>(8*s)))
		}
	}
	return string(buf)
}
