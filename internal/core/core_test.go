package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// exactDensity is a density oracle over a fixed point set: the count of
// points within radius r, divided by the ball volume. It lets tests check
// the sampler against known densities without KDE noise.
type exactDensity struct {
	pts []geom.Point
	r   float64
}

func (e exactDensity) Density(p geom.Point) float64 {
	count := 0
	for _, q := range e.pts {
		if geom.Distance(p, q) <= e.r {
			count++
		}
	}
	return float64(count) / geom.UnitBallVolume(p.Dims(), e.r)
}

// twoBlobs builds a dataset with a dense blob (nDense points in a tight
// square) and a sparse blob (nSparse in a loose square), well separated.
func twoBlobs(nDense, nSparse int, rng *stats.RNG) (*dataset.InMemory, []geom.Point) {
	pts := make([]geom.Point, 0, nDense+nSparse)
	for i := 0; i < nDense; i++ {
		pts = append(pts, geom.Point{0.2 + 0.05*rng.Float64(), 0.2 + 0.05*rng.Float64()})
	}
	for i := 0; i < nSparse; i++ {
		pts = append(pts, geom.Point{0.6 + 0.3*rng.Float64(), 0.6 + 0.3*rng.Float64()})
	}
	return dataset.MustInMemory(pts), pts
}

func buildKDE(t *testing.T, ds *dataset.InMemory, kernels int, rng *stats.RNG) *kde.Estimator {
	t.Helper()
	est, err := kde.Build(ds, kde.Options{NumKernels: kernels}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestDrawValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	ds, _ := twoBlobs(100, 100, rng)
	est := buildKDE(t, ds, 50, rng)

	if _, err := Draw(ds, nil, Options{Alpha: 1, TargetSize: 10}, rng); err == nil {
		t.Error("nil estimator accepted at a = 1")
	}
	// At a = 0 the exact draw reads no density, so it needs no estimator;
	// the one-pass draw still needs one for its centers.
	if _, err := Draw(ds, nil, Options{TargetSize: 10}, rng); err != nil {
		t.Errorf("nil estimator refused at a = 0: %v", err)
	}
	if _, err := Draw(ds, nil, Options{TargetSize: 10, OnePass: true}, rng); err == nil {
		t.Error("nil estimator accepted by the one-pass draw at a = 0")
	}
	if _, err := Draw(ds, est, Options{TargetSize: 0}, rng); err == nil {
		t.Error("zero target size accepted")
	}
	if _, err := Draw(ds, est, Options{TargetSize: 10, FloorDensity: -1}, rng); err == nil {
		t.Error("negative floor accepted")
	}
}

// Property 2 of the paper: the expected sample size is b.
func TestExpectedSampleSize(t *testing.T) {
	rng := stats.NewRNG(2)
	ds, _ := twoBlobs(5000, 5000, rng)
	est := buildKDE(t, ds, 300, rng)

	for _, alpha := range []float64{0, 0.5, 1, -0.5} {
		var total int
		const trials = 20
		const b = 500
		for i := 0; i < trials; i++ {
			s, err := Draw(ds, est, Options{Alpha: alpha, TargetSize: b}, rng)
			if err != nil {
				t.Fatal(err)
			}
			total += len(s.Points)
		}
		mean := float64(total) / trials
		// sd of one draw ≤ sqrt(b); mean of 20 draws has sd ≤ sqrt(500/20)=5;
		// allow generous 6-sigma plus saturation slack.
		if math.Abs(mean-b) > 40 {
			t.Errorf("alpha=%v: mean sample size %v, want ~%v", alpha, mean, float64(b))
		}
	}
}

// a = 0 must reduce to uniform sampling: inclusion probability b/n for all.
func TestAlphaZeroIsUniform(t *testing.T) {
	rng := stats.NewRNG(3)
	ds, _ := twoBlobs(2000, 2000, rng)
	est := buildKDE(t, ds, 200, rng)

	s, err := Draw(ds, est, Options{Alpha: 0, TargetSize: 400}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// norm = n when alpha = 0 (each f^0 = 1)
	if math.Abs(s.Norm-4000) > 1e-9 {
		t.Errorf("k_0 = %v, want n = 4000", s.Norm)
	}
	// every weight must equal n/b = 10
	for _, wp := range s.Points {
		if math.Abs(wp.W-10) > 1e-9 {
			t.Fatalf("uniform weight = %v, want 10", wp.W)
		}
	}
}

// densityCounter wraps an estimator and counts every density it
// evaluates, through either interface.
type densityCounter struct {
	*kde.Estimator
	evals atomic.Int64
}

func (c *densityCounter) Density(p geom.Point) float64 {
	c.evals.Add(1)
	return c.Estimator.Density(p)
}

func (c *densityCounter) DensityBatch(pts []geom.Point, out []float64, rec *obs.Recorder) {
	c.evals.Add(int64(len(pts)))
	c.Estimator.DensityBatch(pts, out, rec)
}

// f^0 = 1 whatever f is, so an a = 0 draw evaluates no density on any
// path: not at a data point, not at a center for the default floor or
// the one-pass normalizer. It adds nothing to kde_kernel_evals_total.
// Each path's a = 1 run shows both counters do see evaluations, and the
// kernel evaluations reach the Recorder of the call's Options.Obs alone:
// the estimator carries none.
func TestAlphaZeroEvaluatesNoDensity(t *testing.T) {
	fx := newIncrementalFixture(t, 3000, 600, 120, 200, 0, 21)
	n := fx.full.Len()
	opts := func(alpha float64, rec *obs.Recorder) Options {
		return Options{Alpha: alpha, TargetSize: 200, BlockSize: 512, Parallelism: 2, Obs: rec}
	}
	allBlocks := func(o Options) []int {
		blocks := make([]int, parallel.NumBlocks(n, o.BlockSize))
		for i := range blocks {
			blocks[i] = i
		}
		return blocks
	}
	paths := []struct {
		name string
		run  func(est DensityEstimator, o Options) error
	}{
		{"exact", func(est DensityEstimator, o Options) error {
			_, err := Draw(fx.full, est, o, stats.NewRNG(1))
			return err
		}},
		{"onepass", func(est DensityEstimator, o Options) error {
			o.OnePass = true
			_, err := Draw(fx.full, est, o, stats.NewRNG(1))
			return err
		}},
		{"extend", func(est DensityEstimator, o Options) error {
			_, _, err := ExtendDraw(fx.full, est, ExtendOptions{
				Options: o, DeltaStart: fx.n, Prior: fx.prior, PriorNorm: fx.priorNS,
			}, stats.NewRNG(1))
			return err
		}},
		{"sharded", func(est DensityEstimator, o Options) error {
			blocks := allBlocks(o)
			parts, err := NormPartials(fx.full, est, o, blocks)
			if err == nil {
				_, err = DrawBlocks(fx.full, est, o, FoldNorm(parts), 1, blocks)
			}
			return err
		}},
		{"propose", func(est DensityEstimator, o Options) error {
			_, err := ProposeBlocks(fx.full, est, o, 1, allBlocks(o))
			return err
		}},
	}
	for _, p := range paths {
		for _, alpha := range []float64{0, 1} {
			rec := obs.New()
			c := &densityCounter{Estimator: fx.ext}
			if err := p.run(c, opts(alpha, rec)); err != nil {
				t.Fatalf("%s a=%v: %v", p.name, alpha, err)
			}
			kernels, points := rec.Counter(obs.CtrKernelEvals).Value(), c.evals.Load()
			if alpha == 0 && (kernels != 0 || points != 0) {
				t.Errorf("%s a=0: %d kernel evaluations over %d densities, want none", p.name, kernels, points)
			}
			if alpha != 0 && (kernels == 0 || points == 0) {
				t.Errorf("%s a=%v: %d kernel evaluations over %d densities — the counters see nothing", p.name, alpha, kernels, points)
			}
		}
	}
}

// a > 0 oversamples the dense region relative to the sparse one.
func TestPositiveAlphaOversamplesDense(t *testing.T) {
	rng := stats.NewRNG(4)
	ds, _ := twoBlobs(5000, 5000, rng)
	est := buildKDE(t, ds, 400, rng)

	countRegions := func(s *Sample) (dense, sparse int) {
		for _, wp := range s.Points {
			if wp.P[0] < 0.4 {
				dense++
			} else {
				sparse++
			}
		}
		return
	}

	sPos, err := Draw(ds, est, Options{Alpha: 1, TargetSize: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	dPos, spPos := countRegions(sPos)

	sUni, err := Draw(ds, est, Options{Alpha: 0, TargetSize: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	dUni, spUni := countRegions(sUni)

	// Uniform: both halves equally represented. a=1: dense half dominates.
	if dPos <= dUni || spPos >= spUni {
		t.Errorf("a=1 dense/sparse = %d/%d, uniform = %d/%d", dPos, spPos, dUni, spUni)
	}
	ratioPos := float64(dPos) / float64(spPos+1)
	if ratioPos < 3 {
		t.Errorf("a=1 dense:sparse ratio = %v, want strongly dense-biased", ratioPos)
	}
}

// -1 < a < 0 oversamples the sparse region.
func TestNegativeAlphaOversamplesSparse(t *testing.T) {
	rng := stats.NewRNG(5)
	// dense blob has 10x the points of the sparse blob
	ds, _ := twoBlobs(9000, 900, rng)
	est := buildKDE(t, ds, 400, rng)

	s, err := Draw(ds, est, Options{Alpha: -0.5, TargetSize: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var dense, sparse int
	for _, wp := range s.Points {
		if wp.P[0] < 0.4 {
			dense++
		} else {
			sparse++
		}
	}
	// Under uniform sampling sparse would get ~1/11 of the sample (≈91).
	// With a=-0.5 the sparse region must be overrepresented relative to that.
	if sparse < 150 {
		t.Errorf("a=-0.5 sparse count = %d, want oversampled (>150 of ~%d)", sparse, dense+sparse)
	}
	if dense == 0 {
		t.Error("dense region must still be sampled (relative density preservation)")
	}
}

// Lemma 1: for a > -1, if region A is denser than B in the data, it remains
// denser in the sample with high probability.
func TestRelativeDensityPreserved(t *testing.T) {
	rng := stats.NewRNG(6)
	ds, _ := twoBlobs(9000, 900, rng) // dense region ~40x denser per volume
	est := buildKDE(t, ds, 400, rng)

	for _, alpha := range []float64{-0.5, -0.25, 0.5, 1} {
		s, err := Draw(ds, est, Options{Alpha: alpha, TargetSize: 1500}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var dense, sparse int
		for _, wp := range s.Points {
			if wp.P[0] < 0.4 {
				dense++
			} else {
				sparse++
			}
		}
		// Dense blob area: 0.05². Sparse blob area: 0.3² (36x). Sample
		// density(dense) > sample density(sparse) ⇔ dense/0.0025 > sparse/0.09
		// ⇔ dense > sparse/36.
		if float64(dense) <= float64(sparse)/36 {
			t.Errorf("alpha=%v: relative density inverted (dense=%d sparse=%d)", alpha, dense, sparse)
		}
	}
}

// The exact algorithm takes 2 data passes; one-pass takes 1.
func TestPassBudget(t *testing.T) {
	rng := stats.NewRNG(7)
	ds, _ := twoBlobs(1000, 1000, rng)
	est := buildKDE(t, ds, 100, rng) // consumes 1 pass
	base := ds.Passes()

	s, err := Draw(ds, est, Options{Alpha: 1, TargetSize: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.DataPasses != 2 || ds.Passes()-base != 2 {
		t.Errorf("exact variant: %d reported / %d actual passes, want 2", s.DataPasses, ds.Passes()-base)
	}

	base = ds.Passes()
	s1, err := Draw(ds, est, Options{Alpha: 1, TargetSize: 100, OnePass: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s1.DataPasses != 1 || ds.Passes()-base != 1 {
		t.Errorf("one-pass variant: %d reported / %d actual passes, want 1", s1.DataPasses, ds.Passes()-base)
	}
}

// The one-pass approximate normalizer must be close to the exact one.
func TestOnePassNormApproximation(t *testing.T) {
	rng := stats.NewRNG(8)
	ds, _ := twoBlobs(10000, 10000, rng)
	est := buildKDE(t, ds, 1000, rng)

	const floor = 1.0 // well below any blob density in this dataset
	for _, alpha := range []float64{0.5, 1, -0.5} {
		exact, err := ExactNorm(ds, est, alpha, floor)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Draw(ds, est, Options{Alpha: alpha, TargetSize: 100, OnePass: true, FloorDensity: floor}, rng)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(s.Norm-exact) / exact
		if rel > 0.25 {
			t.Errorf("alpha=%v: one-pass norm %v vs exact %v (rel err %v)", alpha, s.Norm, exact, rel)
		}
	}
}

// Weights must be exact inverses of the inclusion probabilities.
func TestWeightsAreInverseProbabilities(t *testing.T) {
	rng := stats.NewRNG(9)
	ds, pts := twoBlobs(2000, 2000, rng)
	oracle := exactDensity{pts: pts, r: 0.05}

	s, err := Draw(ds, oracle, Options{Alpha: 1, TargetSize: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	floor := 1e-9
	for _, wp := range s.Points {
		p := InclusionProb(oracle.Density(wp.P), 1, floor, s.Norm, 500)
		if math.Abs(wp.W-1/p) > 1e-9*(1+wp.W) {
			t.Fatalf("weight %v != 1/prob %v", wp.W, 1/p)
		}
	}
	// Horvitz-Thompson check: Σ weights estimates n.
	var tot float64
	for _, wp := range s.Points {
		tot += wp.W
	}
	if math.Abs(tot-4000) > 800 {
		t.Errorf("Σ weights = %v, want ~4000", tot)
	}
}

// Zero-density regions with a<0 must not blow up the normalizer.
func TestFloorKeepsNegativeAlphaFinite(t *testing.T) {
	rng := stats.NewRNG(10)
	// isolated far-away point the KDE will see as ~zero density
	pts := make([]geom.Point, 0, 1001)
	for i := 0; i < 1000; i++ {
		pts = append(pts, geom.Point{0.5 + 0.01*rng.Float64(), 0.5 + 0.01*rng.Float64()})
	}
	pts = append(pts, geom.Point{5, 5})
	ds := dataset.MustInMemory(pts)
	est := buildKDE(t, ds, 100, rng)

	s, err := Draw(ds, est, Options{Alpha: -1.5, TargetSize: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(s.Norm, 0) || math.IsNaN(s.Norm) {
		t.Fatalf("norm = %v", s.Norm)
	}
	// The isolated point must be (near-)certainly included at strongly
	// negative alpha.
	found := false
	for _, wp := range s.Points {
		if wp.P[0] > 4 {
			found = true
		}
	}
	if !found {
		t.Error("far outlier not sampled at alpha=-1.5")
	}
}

func TestPlainPoints(t *testing.T) {
	s := &Sample{Points: []dataset.WeightedPoint{
		{P: geom.Point{1, 2}, W: 3},
		{P: geom.Point{4, 5}, W: 6},
	}}
	pts := s.PlainPoints()
	if len(pts) != 2 || !pts[1].Equal(geom.Point{4, 5}) {
		t.Errorf("PlainPoints = %v", pts)
	}
}

func TestInclusionProbClamped(t *testing.T) {
	if p := InclusionProb(1e12, 1, 1e-9, 1, 10); p != 1 {
		t.Errorf("clamped prob = %v", p)
	}
	if p := InclusionProb(0, 0, 1e-9, 100, 10); math.Abs(p-0.1) > 1e-12 {
		t.Errorf("uniform prob = %v, want 0.1", p)
	}
}
