package histogram

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func uniformPoints(n, d int, rng *stats.RNG) *dataset.InMemory {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return dataset.MustInMemory(pts)
}

func TestBuildValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	ds := uniformPoints(100, 2, rng)
	if _, err := Build(ds, geom.UnitCube(3)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// bins^d explosion must be rejected, not allocated
	ds10 := uniformPoints(100, 10, rng)
	if _, err := Build(ds10, geom.UnitCube(10)); err == nil {
		t.Error("32^10 cells accepted")
	}
}

func TestOnePass(t *testing.T) {
	rng := stats.NewRNG(2)
	ds := uniformPoints(5000, 2, rng)
	if _, err := Build(ds, geom.UnitCube(2)); err != nil {
		t.Fatal(err)
	}
	if ds.Passes() != 1 {
		t.Errorf("passes = %d", ds.Passes())
	}
}

func TestUniformDensity(t *testing.T) {
	rng := stats.NewRNG(3)
	const n = 500 * binsPerDim * binsPerDim // about 500 points per bin
	ds := uniformPoints(n, 2, rng)
	h, err := Build(ds, geom.UnitCube(2))
	if err != nil {
		t.Fatal(err)
	}
	// Uniform data on the unit square: density ≈ n everywhere.
	for _, q := range []geom.Point{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.2}} {
		got := h.Density(q)
		if math.Abs(got-n) > 0.15*n {
			t.Errorf("density at %v = %v, want ~%v", q, got, float64(n))
		}
	}
	if h.N() != n {
		t.Errorf("N = %d", h.N())
	}
}

func TestDensityIntegratesToN(t *testing.T) {
	rng := stats.NewRNG(4)
	const n = 20000
	// Clustered data.
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{0.3 + 0.1*rng.Float64(), 0.6 + 0.2*rng.Float64()}
	}
	ds := dataset.MustInMemory(pts)
	h, err := Build(ds, geom.UnitCube(2))
	if err != nil {
		t.Fatal(err)
	}
	// Sum of count/volume × volume over all cells = n exactly.
	var integral float64
	for _, c := range h.counts {
		integral += float64(c)
	}
	if int(integral) != n {
		t.Errorf("total mass = %v", integral)
	}
	// Density contrast: inside the blob ≫ outside.
	if h.Density(geom.Point{0.35, 0.7}) <= h.Density(geom.Point{0.9, 0.1})+1 {
		t.Error("no density contrast")
	}
}

func TestClamping(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := uniformPoints(100, 2, rng)
	h, err := Build(ds, geom.UnitCube(2))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-domain queries clamp, not panic.
	_ = h.Density(geom.Point{-1, 2})
	_ = h.Density(geom.Point{5, 5})
}

func TestAsCoreEstimator(t *testing.T) {
	// Histogram must be usable as a density source: sanity-check the
	// ordering a biased sampler depends on.
	rng := stats.NewRNG(7)
	var pts []geom.Point
	for i := 0; i < 9000; i++ {
		pts = append(pts, geom.Point{0.2 + 0.1*rng.Float64(), 0.2 + 0.1*rng.Float64()})
	}
	for i := 0; i < 1000; i++ {
		pts = append(pts, geom.Point{rng.Float64(), rng.Float64()})
	}
	ds := dataset.MustInMemory(pts)
	h, err := Build(ds, geom.UnitCube(2))
	if err != nil {
		t.Fatal(err)
	}
	dense := h.Density(geom.Point{0.25, 0.25})
	sparse := h.Density(geom.Point{0.8, 0.8})
	if dense < 10*sparse {
		t.Errorf("contrast too weak: %v vs %v", dense, sparse)
	}
}
