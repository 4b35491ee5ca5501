package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/stats"
)

// incrementalFixture builds a two-generation dataset, the prior artifacts
// (estimator + sample + norm state) over the prefix, and the extended
// estimator over the full view — the exact inputs a serving cache holds
// when ExtendDraw runs.
type incrementalFixture struct {
	full    dataset.Dataset // view at generation 1
	n, m    int             // prefix length, delta length
	prior   *Sample
	priorNS NormState
	ext     *kde.Estimator
}

func newIncrementalFixture(t *testing.T, n, m, ks, b int, alpha float64, seed uint64) *incrementalFixture {
	t.Helper()
	setup := stats.NewRNG(seed)
	pts := make([]geom.Point, 0, n+m)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{0.2 + 0.1*setup.Float64(), 0.2 + 0.1*setup.Float64()})
	}
	// The delta lands in a new region, so extending genuinely shifts the
	// density field rather than thickening the existing blob.
	for i := 0; i < m; i++ {
		pts = append(pts, geom.Point{0.7 + 0.1*setup.Float64(), 0.7 + 0.1*setup.Float64()})
	}
	mem := dataset.MustInMemory(pts[:n])
	if err := mem.Append(pts[n:]...); err != nil {
		t.Fatal(err)
	}
	full, err := dataset.GenView(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := dataset.GenView(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := dataset.DeltaView(mem, 1)
	if err != nil {
		t.Fatal(err)
	}

	streams := stats.NewRNG(seed ^ 0x5eed).Splits(3)
	priorEst, err := kde.Build(prefix, kde.Options{NumKernels: ks}, streams[0])
	if err != nil {
		t.Fatal(err)
	}
	prior, err := Draw(prefix, priorEst, Options{Alpha: alpha, TargetSize: b}, streams[1])
	if err != nil {
		t.Fatal(err)
	}
	dk := ks * m / n
	if dk < 1 {
		dk = 1
	}
	centers, err := dataset.Reservoir(delta, dk, streams[2])
	if err != nil {
		t.Fatal(err)
	}
	ext, err := priorEst.Extend(centers, n+m)
	if err != nil {
		t.Fatal(err)
	}
	return &incrementalFixture{
		full:    full,
		n:       n,
		m:       m,
		prior:   prior,
		priorNS: NormState{K: prior.Norm, N: n, Kernels: priorEst.NumKernels()},
		ext:     ext,
	}
}

func (fx *incrementalFixture) extend(t *testing.T, alpha float64, b, par int, seed uint64) (*Sample, NormState) {
	t.Helper()
	s, ns, err := ExtendDraw(fx.full, fx.ext, ExtendOptions{
		Options:    Options{Alpha: alpha, TargetSize: b, Parallelism: par},
		DeltaStart: fx.n,
		Prior:      fx.prior,
		PriorNorm:  fx.priorNS,
	}, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s, ns
}

// TestExtendDrawDeterministicAcrossWorkers pins worker-count invariance:
// the incremental draw at parallelism 1 and 8 must agree bit-for-bit —
// same points, same weights, same normalizer — since replicas with
// different CPU counts must serve identical samples.
func TestExtendDrawDeterministicAcrossWorkers(t *testing.T) {
	fx := newIncrementalFixture(t, 4000, 400, 100, 300, 1.0, 31)
	s1, ns1 := fx.extend(t, 1.0, 300, 1, 77)
	s8, ns8 := fx.extend(t, 1.0, 300, 8, 77)
	if ns1 != ns8 {
		t.Fatalf("norm state diverged: %+v vs %+v", ns1, ns8)
	}
	if len(s1.Points) != len(s8.Points) {
		t.Fatalf("sample sizes diverged: %d vs %d", len(s1.Points), len(s8.Points))
	}
	for i := range s1.Points {
		if !s1.Points[i].P.Equal(s8.Points[i].P) || s1.Points[i].W != s8.Points[i].W {
			t.Fatalf("point %d diverged: %+v vs %+v", i, s1.Points[i], s8.Points[i])
		}
	}
}

// TestExtendDrawNormMatchesExactWhenNoNewCenters: when the estimator is
// extended with no new kernels (mass rescale only), every density scales
// uniformly and the incremental normalizer update is exact — it must
// match the normalizer a from-scratch Draw over the full view computes,
// for α = 1 and α = 2.
func TestExtendDrawNormMatchesExactWhenNoNewCenters(t *testing.T) {
	for _, alpha := range []float64{1.0, 2.0} {
		fx := newIncrementalFixture(t, 3000, 300, 100, 200, alpha, 37)
		// Replace the fixture's extended estimator with a pure rescale.
		var err error
		fx.ext, err = fx.extEstimatorNoDelta()
		if err != nil {
			t.Fatal(err)
		}
		_, ns := fx.extend(t, alpha, 200, 1, 13)
		want, err := Draw(fx.full, fx.ext, Options{Alpha: alpha, TargetSize: 200, Parallelism: 1}, stats.NewRNG(99))
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(ns.K-want.Norm) / want.Norm; rel > 1e-9 {
			t.Errorf("alpha=%g: incremental k_a = %v, exact = %v (rel %v)", alpha, ns.K, want.Norm, rel)
		}
	}
}

// extEstimatorNoDelta rebuilds the prior estimator extended by zero
// centers: same kernels, new total mass n+m.
func (fx *incrementalFixture) extEstimatorNoDelta() (*kde.Estimator, error) {
	priorEst, err := kde.FromCenters(fx.ext.Kernel(), fx.ext.Centers()[:fx.priorNS.Kernels], fx.ext.Bandwidths(), fx.priorNS.N)
	if err != nil {
		return nil, err
	}
	return priorEst.Extend(nil, fx.n+fx.m)
}

// TestExtendDrawExpectedSize: Property 2 survives the incremental path —
// thinning the prior at k_base/k_new and coin-flipping the delta against
// k_new keeps E[|S|] = b.
func TestExtendDrawExpectedSize(t *testing.T) {
	const b = 300
	fx := newIncrementalFixture(t, 4000, 800, 100, b, 1.0, 41)
	var total int
	const trials = 20
	for i := 0; i < trials; i++ {
		s, _ := fx.extend(t, 1.0, b, 0, uint64(1000+i))
		total += len(s.Points)
	}
	mean := float64(total) / trials
	// One draw has sd ≤ sqrt(b) ≈ 17; the mean of 20 has sd ≤ 4. Allow
	// 6 sigma plus slack for saturation.
	if math.Abs(mean-b) > 30 {
		t.Errorf("mean incremental sample size %v, want ~%v", mean, float64(b))
	}
}

// TestExtendDrawPassBudget: the incremental draw reads the delta twice
// (normalize + sample) and the prior sample zero times — its data-pass
// cost is O(|delta|), independent of the prefix length.
func TestExtendDrawPassBudget(t *testing.T) {
	fx := newIncrementalFixture(t, 4000, 400, 100, 300, 1.0, 43)
	before := fx.full.Passes()
	s, _ := fx.extend(t, 1.0, 300, 0, 7)
	if got := fx.full.Passes() - before; got != 2 {
		t.Errorf("incremental draw cost %d dataset passes, want 2", got)
	}
	if s.DataPasses != 2 {
		t.Errorf("reported DataPasses = %d, want 2", s.DataPasses)
	}
}

func TestExtendDrawValidation(t *testing.T) {
	fx := newIncrementalFixture(t, 1000, 100, 50, 100, 1.0, 47)
	rng := stats.NewRNG(1)
	base := ExtendOptions{
		Options:    Options{Alpha: 1, TargetSize: 100},
		DeltaStart: fx.n,
		Prior:      fx.prior,
		PriorNorm:  fx.priorNS,
	}

	bad := base
	bad.Prior = nil
	if _, _, err := ExtendDraw(fx.full, fx.ext, bad, rng); err == nil {
		t.Error("nil prior accepted")
	}
	bad = base
	bad.DeltaStart = fx.n - 1
	if _, _, err := ExtendDraw(fx.full, fx.ext, bad, rng); err == nil {
		t.Error("DeltaStart != prior.N accepted")
	}
	bad = base
	bad.OnePass = true
	if _, _, err := ExtendDraw(fx.full, fx.ext, bad, rng); err == nil {
		t.Error("OnePass accepted on the incremental path")
	}
	bad = base
	bad.Densities = make([]float64, fx.full.Len()-fx.n)
	if _, _, err := ExtendDraw(fx.full, fx.ext, bad, rng); err == nil {
		t.Error("stored densities accepted on the incremental path")
	}
	bad = base
	bad.TargetSize = 0
	if _, _, err := ExtendDraw(fx.full, fx.ext, bad, rng); err == nil {
		t.Error("zero target size accepted")
	}
	bad = base
	bad.PriorNorm.K = 0
	if _, _, err := ExtendDraw(fx.full, fx.ext, bad, rng); err == nil {
		t.Error("zero prior normalizer accepted")
	}
	if _, _, err := ExtendDraw(fx.full, nil, base, rng); err == nil {
		t.Error("nil estimator accepted")
	}
	// m = 0: the view has no delta rows past DeltaStart.
	prefixOnly, err := dataset.Window(fx.full, 0, fx.n)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExtendDraw(prefixOnly, fx.ext, base, rng); err == nil {
		t.Error("empty delta accepted")
	}
}

func TestRebuildSchedule(t *testing.T) {
	cases := []struct {
		name   string
		counts []int
		tol    float64
		want   []bool
	}{
		{"tol zero is always exact", []int{100, 101, 102}, 0, []bool{true, true, true}},
		{"negative tol is always exact", []int{100, 200}, -1, []bool{true, true}},
		{"single generation", []int{50}, 0.5, []bool{true}},
		// 1% steps against a 5% budget: drift accumulates ~0.0099 per
		// generation and crosses tol on the 6th append.
		{
			"small steps accumulate",
			[]int{1000, 1010, 1020, 1030, 1040, 1050, 1060},
			0.05,
			[]bool{true, false, false, false, false, false, true},
		},
		// A large append blows the budget immediately and resets drift.
		{
			"big step forces rebuild",
			[]int{1000, 2000, 2010},
			0.05,
			[]bool{true, true, false},
		},
		// Shrinks (window eviction) charge the budget like growths of the
		// same magnitude: |delta|/counts[g]. The regression: a signed step
		// would go negative on each shrink, cancel the growth steps, and
		// postpone the exact rebuild indefinitely.
		{
			"shrinks charge the budget",
			[]int{1000, 1020, 990, 1010, 980, 1000, 1020},
			0.05,
			[]bool{true, false, false, true, false, true, false},
		},
		// A large eviction alone must force a rebuild even though the
		// dataset got smaller.
		{
			"big shrink forces rebuild",
			[]int{1000, 400, 404},
			0.05,
			[]bool{true, true, false},
		},
	}
	for _, c := range cases {
		got := RebuildSchedule(c.counts, c.tol)
		if len(got) != len(c.want) {
			t.Errorf("%s: len = %d, want %d", c.name, len(got), len(c.want))
			continue
		}
		for g := range got {
			if got[g] != c.want[g] {
				t.Errorf("%s: gen %d exact=%v, want %v (full %v)", c.name, g, got[g], c.want[g], got)
			}
		}
	}
}
