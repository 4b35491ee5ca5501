package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/stats"
)

// storedDensities is f at every row of ds from est's DensityBatch, in
// batches of 1,000 rows, a batching no draw below uses: DensityBatch
// returns the same f for any batching.
func storedDensities(t *testing.T, ds dataset.Dataset, est *kde.Estimator) []float64 {
	t.Helper()
	dens := make([]float64, ds.Len())
	err := dataset.ScanBlocks(ds, dataset.ScanConfig{BlockSize: 1000, Parallelism: 1}, func(_, start int, pts []geom.Point) error {
		est.DensityBatch(pts, dens[start:start+len(pts)], nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dens
}

// TestDrawStoredDensities: a Draw that reads f from stored densities
// equals a Draw that evaluates f, bit for bit (points, weights, Norm,
// Saturated), on an in-memory dataset, a generation view and a segment
// file (mapped where the platform maps), at 1 and 4 workers, for
// exponents whose probabilities clip (a = -2) and do not. Stored
// densities whose length is not the dataset's fail the draw.
func TestDrawStoredDensities(t *testing.T) {
	setup := stats.NewRNG(404)
	mem, pts := twoBlobs(3000, 3000, setup)
	est := buildKDE(t, mem, 200, setup)

	// Generation 0 of a dataset that has since grown: 3,000 dense and
	// 1,000 sparse rows.
	grown := dataset.MustInMemory(pts[:4000])
	if err := grown.Append(pts[4000:]...); err != nil {
		t.Fatal(err)
	}
	view, err := dataset.GenView(grown, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blobs.dbs")
	sf, err := dataset.CreateSegmented(path, mem)
	if err == nil {
		err = sf.Close()
	}
	if err == nil {
		sf, err = dataset.OpenSegmented(path)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() })

	// The floor 2e4 binds for roughly the sparsest tenth of the points, so
	// at a = -2 and b = 2000 their probabilities clip.
	cases := []struct {
		alpha, floor float64
		b            int
	}{{-2, 2e4, 2000}, {-0.5, 0, 500}, {0.5, 0, 500}, {1, 0, 500}}
	for _, d := range []struct {
		name string
		ds   dataset.Dataset
	}{{"inmemory", mem}, {"genview", view}, {"segment", sf}} {
		dens := storedDensities(t, d.ds, est)
		for _, c := range cases {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s a=%v p=%d", d.name, c.alpha, workers)
				opts := Options{Alpha: c.alpha, TargetSize: c.b, FloorDensity: c.floor, BlockSize: 512, Parallelism: workers}
				want, err := Draw(d.ds, est, opts, stats.NewRNG(9))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if c.alpha == -2 && want.Saturated == 0 {
					t.Fatalf("%s: nothing clips", label)
				}
				opts.Densities = dens
				got, err := Draw(d.ds, est, opts, stats.NewRNG(9))
				if err != nil {
					t.Fatalf("%s stored: %v", label, err)
				}
				sameBits(t, want, got, label+" stored")
			}
		}
		for _, n := range []int{d.ds.Len() - 1, d.ds.Len() + 1, 0} {
			opts := Options{Alpha: 1, TargetSize: 500, Densities: make([]float64, n)}
			if _, err := Draw(d.ds, est, opts, stats.NewRNG(9)); err == nil {
				t.Errorf("%s: %d stored densities for %d points accepted", d.name, n, d.ds.Len())
			}
		}
	}
}
