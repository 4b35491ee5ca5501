package outlier

import (
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/stats"
)

// clusterWithOutliers builds one dense blob plus m isolated points far
// from it; returns the points and the indices of the isolated ones.
func clusterWithOutliers(n, m int, rng *stats.RNG) ([]geom.Point, map[int]bool) {
	pts := make([]geom.Point, 0, n+m)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{0.3 + 0.1*rng.Float64(), 0.3 + 0.1*rng.Float64()})
	}
	outliers := map[int]bool{}
	for i := 0; i < m; i++ {
		pts = append(pts, geom.Point{0.8 + 0.02*float64(i), 0.85})
		outliers[n+i] = true
	}
	return pts, outliers
}

func TestParamsValidation(t *testing.T) {
	if _, err := NestedLoop(nil, Params{K: 0, P: 1}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Exact(nil, Params{K: 1, P: -1}); err == nil {
		t.Error("P<0 accepted")
	}
}

func TestFromFraction(t *testing.T) {
	prm := FromFraction(0.1, 0.02, 5000)
	if prm.P != 100 || prm.K != 0.1 {
		t.Errorf("FromFraction = %+v", prm)
	}
}

func TestNestedLoopFindsPlanted(t *testing.T) {
	rng := stats.NewRNG(1)
	pts, truth := clusterWithOutliers(500, 3, rng)
	got, err := NestedLoop(pts, Params{K: 0.05, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("found %d outliers, want 3: %v", len(got), got)
	}
	for _, i := range got {
		if !truth[i] {
			t.Errorf("false positive index %d", i)
		}
	}
}

func TestExactMatchesNestedLoop(t *testing.T) {
	rng := stats.NewRNG(2)
	pts, _ := clusterWithOutliers(800, 5, rng)
	// Add moderate background so counts vary.
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{rng.Float64(), rng.Float64()})
	}
	for _, prm := range []Params{{K: 0.03, P: 0}, {K: 0.05, P: 2}, {K: 0.1, P: 10}} {
		nl, err := NestedLoop(pts, prm)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Exact(pts, prm)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(nl)
		sort.Ints(ex)
		if len(nl) != len(ex) {
			t.Fatalf("prm %+v: nested %d vs exact %d outliers", prm, len(nl), len(ex))
		}
		for i := range nl {
			if nl[i] != ex[i] {
				t.Fatalf("prm %+v: outlier sets differ", prm)
			}
		}
	}
}

func TestExactEmpty(t *testing.T) {
	got, err := Exact(nil, Params{K: 1, P: 0})
	if err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestSelfDoesNotCount(t *testing.T) {
	// A single isolated point with P=0 must be an outlier (it has zero
	// neighbours besides itself).
	pts := []geom.Point{{0, 0}, {10, 10}, {10.001, 10}}
	got, err := Exact(pts, Params{K: 0.1, P: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("outliers = %v, want [0]", got)
	}
}

func TestApproximateFindsAllWithTwoPasses(t *testing.T) {
	rng := stats.NewRNG(3)
	pts, truth := clusterWithOutliers(5000, 4, rng)
	ds := dataset.MustInMemory(pts)
	est, err := kde.Build(ds, kde.Options{NumKernels: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{K: 0.05, P: 2}
	base := ds.Passes()
	res, err := Approximate(ds, est, prm, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataPasses != 2 || ds.Passes()-base != 2 {
		t.Errorf("passes = %d (reported %d), want 2", ds.Passes()-base, res.DataPasses)
	}
	// Recall must be total: every planted outlier recovered.
	exact, err := Exact(pts, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outliers) != len(exact) {
		t.Fatalf("approximate found %d, exact %d", len(res.Outliers), len(exact))
	}
	for _, o := range res.Outliers {
		idx := -1
		for i, p := range pts {
			if p.Equal(o) {
				idx = i
				break
			}
		}
		if idx < 0 || !truth[idx] {
			t.Errorf("unexpected outlier %v", o)
		}
	}
	// The candidate set must be much smaller than the dataset — that is
	// the point of the density filter.
	if res.NumCandidates > ds.Len()/10 {
		t.Errorf("candidates = %d of %d", res.NumCandidates, ds.Len())
	}
}

func TestApproximateNoCandidatesOnePass(t *testing.T) {
	// A uniform blob with a huge P: nothing can be an outlier, so the
	// expected-count filter keeps nobody and the verify pass is skipped.
	rng := stats.NewRNG(4)
	pts, _ := clusterWithOutliers(3000, 0, rng)
	ds := dataset.MustInMemory(pts)
	est, err := kde.Build(ds, kde.Options{NumKernels: 300}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Approximate(ds, est, Params{K: 0.2, P: 50}, ApproxOptions{CandidateFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outliers) != 0 {
		t.Errorf("found %d outliers in outlier-free data", len(res.Outliers))
	}
	if res.NumCandidates == 0 && res.DataPasses != 1 {
		t.Errorf("no candidates should cost one pass, got %d", res.DataPasses)
	}
}

func TestApproximateValidation(t *testing.T) {
	rng := stats.NewRNG(5)
	pts, _ := clusterWithOutliers(100, 1, rng)
	ds := dataset.MustInMemory(pts)
	est, err := kde.Build(ds, kde.Options{NumKernels: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Approximate(ds, nil, Params{K: 1, P: 0}, ApproxOptions{}); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := Approximate(ds, est, Params{K: 1, P: 0}, ApproxOptions{CandidateFactor: 0.5}); err == nil {
		t.Error("CandidateFactor < 1 accepted")
	}
}

func TestEstimateCountTracksExact(t *testing.T) {
	rng := stats.NewRNG(6)
	pts, _ := clusterWithOutliers(5000, 6, rng)
	ds := dataset.MustInMemory(pts)
	est, err := kde.Build(ds, kde.Options{NumKernels: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{K: 0.05, P: 2}
	base := ds.Passes()
	got, err := EstimateCount(ds, est, prm)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Passes()-base != 1 {
		t.Errorf("EstimateCount took %d passes", ds.Passes()-base)
	}
	exact, err := Exact(pts, prm)
	if err != nil {
		t.Fatal(err)
	}
	// The one-pass estimate must be the right order of magnitude.
	if got < len(exact)/2 || got > len(exact)*10+20 {
		t.Errorf("estimated %d outliers, exact %d", got, len(exact))
	}
}

func TestDuplicateOutlierPair(t *testing.T) {
	// Two coincident isolated points: each has exactly one neighbour, so
	// both are outliers for P=1 but not for P=0.
	pts := []geom.Point{{0, 0}, {0, 0}}
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{5 + 0.001*float64(i), 5})
	}
	p1, err := Exact(pts, Params{K: 0.5, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, i := range p1 {
		if i < 2 {
			found++
		}
	}
	if found != 2 {
		t.Errorf("P=1 should keep both twins, got %v", p1)
	}
	p0, err := Exact(pts, Params{K: 0.5, P: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range p0 {
		if i < 2 {
			t.Errorf("P=0 should reject the twins, got %v", p0)
		}
	}
}
