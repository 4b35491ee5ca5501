package core

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// sampleKey captures everything that must be byte-identical across worker
// counts: points, weights, normalizer, pass count, and saturation.
func sameSample(t *testing.T, a, b *Sample, label string) {
	t.Helper()
	if a.Norm != b.Norm {
		t.Fatalf("%s: Norm %v vs %v", label, a.Norm, b.Norm)
	}
	if a.Saturated != b.Saturated {
		t.Fatalf("%s: Saturated %d vs %d", label, a.Saturated, b.Saturated)
	}
	if a.DataPasses != b.DataPasses {
		t.Fatalf("%s: DataPasses %d vs %d", label, a.DataPasses, b.DataPasses)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d points vs %d", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].W != b.Points[i].W {
			t.Fatalf("%s: weight %d: %v vs %v", label, i, a.Points[i].W, b.Points[i].W)
		}
		if !a.Points[i].P.Equal(b.Points[i].P) {
			t.Fatalf("%s: point %d: %v vs %v", label, i, a.Points[i].P, b.Points[i].P)
		}
	}
}

// Parallel Draw must return the identical sample as the serial path
// (Parallelism: 1) for every worker count, seed, and variant.
func TestDrawDeterministicAcrossWorkers(t *testing.T) {
	setup := stats.NewRNG(100)
	ds, _ := twoBlobs(4000, 4000, setup)
	est := buildKDE(t, ds, 300, setup)

	for _, seed := range []uint64{1, 7, 12345} {
		for _, alpha := range []float64{0, 1, -0.5} {
			base := Options{Alpha: alpha, TargetSize: 800, BlockSize: 512, Parallelism: 1}
			ref, err := Draw(ds, est, base, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				opts := base
				opts.Parallelism = workers
				got, err := Draw(ds, est, opts, stats.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				sameSample(t, ref, got, "exact")
			}
			// One-pass variant: same invariant.
			one := base
			one.OnePass = true
			refOne, err := Draw(ds, est, one, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				opts := one
				opts.Parallelism = workers
				got, err := Draw(ds, est, opts, stats.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				sameSample(t, refOne, got, "onepass")
			}
		}
	}
}

// The invariant must hold for file-backed datasets too, where parallel
// blocks read through independent file handles.
func TestDrawDeterministicFileBacked(t *testing.T) {
	setup := stats.NewRNG(101)
	mem, _ := twoBlobs(3000, 3000, setup)
	path := filepath.Join(t.TempDir(), "blobs.dbs")
	if err := dataset.SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if dataset.Resident(fb) {
		t.Fatal("the DBS1 fixture is resident; it must take the non-resident draw path")
	}
	est := buildKDE(t, mem, 200, setup)

	opts := Options{Alpha: 1, TargetSize: 500, BlockSize: 256, Parallelism: 1}
	ref, err := Draw(fb, est, opts, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		opts.Parallelism = workers
		got, err := Draw(fb, est, opts, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		sameSample(t, ref, got, "file-backed")
	}
	// File-backed and in-memory scans of the same data must agree as well.
	opts.Parallelism = 4
	gotMem, err := Draw(mem, est, opts, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	sameSample(t, ref, gotMem, "in-memory vs file")
}

// exactNormAt is ExactNorm's weigh step on an engine built in-package
// with the given worker budget and block size (0 = the default).
func exactNormAt(ds dataset.Dataset, est DensityEstimator, alpha, floor float64, parallelism, blockSize int) (float64, error) {
	e := &engine{ds: ds, est: est, opts: Options{Alpha: alpha, Parallelism: parallelism, BlockSize: blockSize}, floor: floor}
	return e.exactNorm(false)
}

// The engine's k_a at any worker count must equal serial ExactNorm
// exactly — the ordered reduction, not an atomic-add race, is what makes
// this an equality rather than a tolerance check.
func TestExactNormDeterministicAcrossWorkers(t *testing.T) {
	setup := stats.NewRNG(102)
	ds, _ := twoBlobs(5000, 5000, setup)
	est := buildKDE(t, ds, 300, setup)

	for _, alpha := range []float64{0, 0.5, 1, -0.5} {
		ref, err := ExactNorm(ds, est, alpha, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := exactNormAt(ds, est, alpha, 1e-6, workers, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("alpha=%v workers=%d: ExactNorm %v != serial %v", alpha, workers, got, ref)
			}
		}
	}
}
