package kde

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func batchTestData(n, dims int, seed uint64) *dataset.InMemory {
	rng := stats.NewRNG(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for j := range p {
			// Two lobes so densities span a useful range.
			if i%3 == 0 {
				p[j] = 0.2 + 0.05*rng.Float64()
			} else {
				p[j] = 0.6 + 0.3*rng.Float64()
			}
		}
		pts[i] = p
	}
	return dataset.MustInMemory(pts)
}

// DensityBatch must agree with per-point Density to rounding, for the
// fused Epanechnikov path and the generic kernel path.
func TestDensityBatchMatchesDensity(t *testing.T) {
	ds := batchTestData(3000, 3, 5)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"epanechnikov", Options{NumKernels: 200}},
		{"gaussian", Options{NumKernels: 200, Kernel: Gaussian{}}},
		{"biweight", Options{NumKernels: 200, Kernel: Biweight{}}},
	} {
		est, err := Build(ds, tc.opts, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		pts := ds.Points()[:500]
		out := make([]float64, len(pts))
		est.DensityBatch(pts, out, nil)
		for i, p := range pts {
			want := est.Density(p)
			diff := math.Abs(out[i] - want)
			if diff > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: point %d: batch %v vs density %v", tc.name, i, out[i], want)
			}
		}
	}
}

// Concurrent batches on one estimator must be safe and agree with the
// serial evaluation (run with -race in verify.sh).
func TestDensityBatchConcurrent(t *testing.T) {
	ds := batchTestData(2000, 2, 6)
	est, err := Build(ds, Options{NumKernels: 150}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	pts := ds.Points()
	want := make([]float64, len(pts))
	est.DensityBatch(pts, want, nil)

	const workers = 8
	block := (len(pts) + workers - 1) / workers
	got := make([]float64, len(pts))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start := w * block
		end := start + block
		if end > len(pts) {
			end = len(pts)
		}
		if start >= end {
			continue
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			est.DensityBatch(pts[s:e], got[s:e], nil)
		}(start, end)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("concurrent batch differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// Concurrent ball integrals exercise the per-dimension quadrature cache
// (run with -race in verify.sh); results must match the serial ones.
func TestIntegrateBallConcurrent(t *testing.T) {
	ds := batchTestData(1000, 2, 8)
	est, err := Build(ds, Options{NumKernels: 100}, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	pts := ds.Points()[:64]
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = est.IntegrateBall(p, 0.1)
	}
	got := make([]float64, len(pts))
	var wg sync.WaitGroup
	for i := range pts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = est.IntegrateBall(pts[i], 0.1)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("concurrent IntegrateBall differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
