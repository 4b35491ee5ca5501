package kde

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

// gaussianBlob samples n points from N(center, sigma²I).
func gaussianBlob(n int, center geom.Point, sigma float64, rng *stats.RNG) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, len(center))
		for j := range p {
			p[j] = rng.Normal(center[j], sigma)
		}
		pts[i] = p
	}
	return pts
}

func TestBuildOnePass(t *testing.T) {
	rng := stats.NewRNG(1)
	ds := dataset.MustInMemory(gaussianBlob(5000, geom.Point{0.5, 0.5}, 0.1, rng))
	_, err := Build(ds, Options{NumKernels: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Passes() != 1 {
		t.Errorf("Build used %d passes, want exactly 1", ds.Passes())
	}
}

func TestBuildDefaults(t *testing.T) {
	rng := stats.NewRNG(2)
	ds := dataset.MustInMemory(gaussianBlob(3000, geom.Point{0, 0}, 1, rng))
	e, err := Build(ds, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumKernels() != DefaultNumKernels {
		t.Errorf("kernels = %d, want default %d", e.NumKernels(), DefaultNumKernels)
	}
	if e.Kernel().Name() != "epanechnikov" {
		t.Errorf("default kernel = %s", e.Kernel().Name())
	}
	if e.N() != 3000 || e.Dims() != 2 {
		t.Errorf("N/Dims = %d/%d", e.N(), e.Dims())
	}
}

func TestBuildSmallDataset(t *testing.T) {
	// Fewer points than kernels: every point becomes a center.
	rng := stats.NewRNG(3)
	ds := dataset.MustInMemory(gaussianBlob(50, geom.Point{0, 0}, 1, rng))
	e, err := Build(ds, Options{NumKernels: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumKernels() != 50 {
		t.Errorf("kernels = %d, want 50", e.NumKernels())
	}
}

func TestBuildValidation(t *testing.T) {
	rng := stats.NewRNG(4)
	ds := dataset.MustInMemory(gaussianBlob(10, geom.Point{0}, 1, rng))
	if _, err := Build(ds, Options{NumKernels: -5}, rng); err == nil {
		t.Error("negative kernels accepted")
	}
	if _, err := Build(ds, Options{BandwidthScale: -1}, rng); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestTotalIntegralApproxN(t *testing.T) {
	rng := stats.NewRNG(5)
	const n = 20000
	ds := dataset.MustInMemory(gaussianBlob(n, geom.Point{0.5, 0.5}, 0.08, rng))
	e, err := Build(ds, Options{NumKernels: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Integrate over a box that surely contains all kernel mass.
	box := geom.NewRect(geom.Point{-2, -2}, geom.Point{3, 3})
	got := e.IntegrateBox(box)
	if math.Abs(got-n) > 1e-6*n {
		t.Errorf("total integral = %v, want %v", got, float64(n))
	}
}

func TestDensityTracksTrueDensity(t *testing.T) {
	// Two blobs with a 4:1 point ratio at the same spread: the estimated
	// density at the heavy center must be ≈4× the light one.
	rng := stats.NewRNG(6)
	heavy := gaussianBlob(16000, geom.Point{0.25, 0.25}, 0.05, rng)
	light := gaussianBlob(4000, geom.Point{0.75, 0.75}, 0.05, rng)
	ds := dataset.MustInMemory(append(heavy, light...))
	e, err := Build(ds, Options{NumKernels: 800}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fh := e.Density(geom.Point{0.25, 0.25})
	fl := e.Density(geom.Point{0.75, 0.75})
	ratio := fh / fl
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("density ratio = %v, want ~4", ratio)
	}
	// Empty region should be near zero.
	f0 := e.Density(geom.Point{0.25, 0.75})
	if f0 > fl/10 {
		t.Errorf("empty-region density %v vs light center %v", f0, fl)
	}
}

func TestDensityMatchesBruteForce(t *testing.T) {
	// The kd-tree pruned evaluation must equal the all-kernels sum.
	rng := stats.NewRNG(7)
	pts := gaussianBlob(2000, geom.Point{0.5, 0.5}, 0.2, rng)
	ds := dataset.MustInMemory(pts)
	e, err := Build(ds, Options{NumKernels: 300}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.Point{rng.Float64(), rng.Float64()}
		var brute float64
		for ci := range e.Centers() {
			brute += e.kernelAt(ci, q)
		}
		brute *= e.weight
		if math.Abs(e.Density(q)-brute) > 1e-9*(1+brute) {
			t.Fatalf("pruned density %v != brute %v", e.Density(q), brute)
		}
	}
}

func TestIntegrateBoxCountsPoints(t *testing.T) {
	// On a uniform dataset, the box integral must track the point count
	// in the box.
	rng := stats.NewRNG(8)
	const n = 30000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	ds := dataset.MustInMemory(pts)
	e, err := Build(ds, Options{NumKernels: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.NewRect(geom.Point{0.2, 0.2}, geom.Point{0.6, 0.7})
	got := e.IntegrateBox(box)
	want := float64(n) * 0.4 * 0.5 // uniform expectation = 6000
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("box integral = %v, want ~%v", got, want)
	}
}

func TestIntegrateBallCountsPoints(t *testing.T) {
	rng := stats.NewRNG(9)
	const n = 30000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	ds := dataset.MustInMemory(pts)
	e, err := Build(ds, Options{NumKernels: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	o := geom.Point{0.5, 0.5}
	r := 0.2
	got := e.IntegrateBall(o, r)
	want := float64(n) * math.Pi * r * r // ≈ 3770
	if math.Abs(got-want) > 0.2*want {
		t.Errorf("ball integral = %v, want ~%v", got, want)
	}
	if e.IntegrateBall(o, 0) != 0 {
		t.Error("zero-radius ball must integrate to 0")
	}
}

func TestIntegrateBallEmptyRegion(t *testing.T) {
	rng := stats.NewRNG(10)
	ds := dataset.MustInMemory(gaussianBlob(5000, geom.Point{0.2, 0.2}, 0.02, rng))
	e, err := Build(ds, Options{NumKernels: 300}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.IntegrateBall(geom.Point{0.9, 0.9}, 0.05); got != 0 {
		t.Errorf("far-away ball integral = %v, want 0", got)
	}
}

func TestFromCenters(t *testing.T) {
	e, err := FromCenters(Epanechnikov{}, []geom.Point{{0.5}}, []float64{0.1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Single kernel of mass 100: peak density = 100 * 0.75/0.1 = 750.
	if got := e.Density(geom.Point{0.5}); math.Abs(got-750) > 1e-9 {
		t.Errorf("peak density = %v, want 750", got)
	}
	if got := e.Density(geom.Point{0.7}); got != 0 {
		t.Errorf("outside support = %v, want 0", got)
	}
}

func TestFromCentersValidation(t *testing.T) {
	if _, err := FromCenters(nil, nil, nil, 10); err == nil {
		t.Error("no centers accepted")
	}
	if _, err := FromCenters(nil, []geom.Point{{1}}, []float64{1}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := FromCenters(nil, []geom.Point{{1}}, []float64{-1}, 5); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := FromCenters(nil, []geom.Point{{1}, {1, 2}}, []float64{1}, 5); err == nil {
		t.Error("ragged centers accepted")
	}
}

func TestGaussianKernelEstimator(t *testing.T) {
	rng := stats.NewRNG(11)
	ds := dataset.MustInMemory(gaussianBlob(5000, geom.Point{0.5, 0.5}, 0.1, rng))
	e, err := Build(ds, Options{NumKernels: 200, Kernel: Gaussian{}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	center := e.Density(geom.Point{0.5, 0.5})
	edge := e.Density(geom.Point{0.9, 0.9})
	if center <= edge {
		t.Errorf("gaussian estimator: center %v <= edge %v", center, edge)
	}
}

func TestDegenerateDimension(t *testing.T) {
	// One dimension constant: bandwidth floor must keep the estimator finite.
	rng := stats.NewRNG(12)
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), 0.5}
	}
	ds := dataset.MustInMemory(pts)
	e, err := Build(ds, Options{NumKernels: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := e.Density(geom.Point{0.5, 0.5})
	if math.IsInf(f, 0) || math.IsNaN(f) || f <= 0 {
		t.Errorf("degenerate-dim density = %v", f)
	}
}

func TestHaltonInUnitInterval(t *testing.T) {
	for i := 1; i < 1000; i++ {
		v := halton(i, 2)
		if v <= 0 || v >= 1 {
			t.Fatalf("halton(%d,2) = %v", i, v)
		}
	}
}

func TestBallQuadratureInsideBall(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		pts := ballQuadrature(d)
		if len(pts) == 0 {
			t.Fatalf("no quadrature points for d=%d", d)
		}
		for _, p := range pts {
			var r2 float64
			for _, v := range p {
				r2 += v * v
			}
			if r2 > 1 {
				t.Fatalf("d=%d quadrature point outside ball", d)
			}
		}
	}
}

func TestPrimeTable(t *testing.T) {
	want := []int{2, 3, 5, 7, 11, 13}
	for i, w := range want {
		if got := prime(i); got != w {
			t.Errorf("prime(%d) = %d, want %d", i, got, w)
		}
	}
	if got := prime(25); got != 101 {
		t.Errorf("prime(25) = %d, want 101", got)
	}
}
