package outlier

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/kde"
	"repro/internal/stats"
)

func sameIndices(t *testing.T, a, b []int, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d outliers vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: index %d: %d vs %d", label, i, a[i], b[i])
		}
	}
}

// NestedLoop and Exact must return identical outlier lists for every
// worker count — each point's verdict is independent and the collection
// runs in index order.
func TestDetectorsDeterministicAcrossWorkers(t *testing.T) {
	rng := stats.NewRNG(21)
	pts, _ := clusterWithOutliers(800, 5, rng)
	base := Params{K: 0.05, P: 2, Parallelism: 1}
	refNL, err := NestedLoop(pts, base)
	if err != nil {
		t.Fatal(err)
	}
	refEx, err := Exact(pts, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8} {
		prm := base
		prm.Parallelism = workers
		gotNL, err := NestedLoop(pts, prm)
		if err != nil {
			t.Fatal(err)
		}
		sameIndices(t, refNL, gotNL, "nested-loop")
		gotEx, err := Exact(pts, prm)
		if err != nil {
			t.Fatal(err)
		}
		sameIndices(t, refEx, gotEx, "exact")
	}
}

// Approximate's block-ordered candidate collection and order-independent
// count merge must yield the identical result for every worker count, and
// EstimateCount's integer reduction likewise.
func TestApproximateDeterministicAcrossWorkers(t *testing.T) {
	rng := stats.NewRNG(22)
	pts, _ := clusterWithOutliers(2500, 6, rng)
	ds := dataset.MustInMemory(pts)
	est, err := kde.Build(ds, kde.Options{NumKernels: 200}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	base := Params{K: 0.05, P: 2, Parallelism: 1}
	ref, err := Approximate(ds, est, base, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refCount, err := EstimateCount(ds, est, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		prm := base
		prm.Parallelism = workers
		got, err := Approximate(ds, est, prm, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumCandidates != ref.NumCandidates {
			t.Fatalf("workers=%d: %d candidates vs %d", workers, got.NumCandidates, ref.NumCandidates)
		}
		if got.DataPasses != ref.DataPasses {
			t.Fatalf("workers=%d: %d passes vs %d", workers, got.DataPasses, ref.DataPasses)
		}
		if len(got.Outliers) != len(ref.Outliers) {
			t.Fatalf("workers=%d: %d outliers vs %d", workers, len(got.Outliers), len(ref.Outliers))
		}
		for i := range got.Outliers {
			if !got.Outliers[i].Equal(ref.Outliers[i]) {
				t.Fatalf("workers=%d: outlier %d: %v vs %v", workers, i, got.Outliers[i], ref.Outliers[i])
			}
		}
		gotCount, err := EstimateCount(ds, est, prm)
		if err != nil {
			t.Fatal(err)
		}
		if gotCount != refCount {
			t.Fatalf("workers=%d: EstimateCount %d vs %d", workers, gotCount, refCount)
		}
	}
}
