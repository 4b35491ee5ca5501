package kde

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func TestExtendBookkeeping(t *testing.T) {
	rng := stats.NewRNG(21)
	ds := dataset.MustInMemory(gaussianBlob(2000, geom.Point{0, 0}, 1, rng))
	prior, err := Build(ds, Options{NumKernels: 64}, rng)
	if err != nil {
		t.Fatal(err)
	}
	delta := gaussianBlob(10, geom.Point{3, 3}, 0.5, rng)
	ext, err := prior.Extend(delta, 2100)
	if err != nil {
		t.Fatal(err)
	}
	if ext.NumKernels() != 74 || ext.N() != 2100 || ext.Dims() != 2 {
		t.Errorf("extended kernels/N/dims = %d/%d/%d, want 74/2100/2", ext.NumKernels(), ext.N(), ext.Dims())
	}
	// The prior is a shared cache artifact: Extend must leave it intact.
	if prior.NumKernels() != 64 || prior.N() != 2000 {
		t.Errorf("prior mutated: kernels/N = %d/%d", prior.NumKernels(), prior.N())
	}
	for j, h := range ext.Bandwidths() {
		if h != prior.Bandwidths()[j] {
			t.Errorf("base bandwidth %d changed: %v -> %v", j, prior.Bandwidths()[j], h)
		}
	}
}

// TestExtendMatchesFromCenters: extending is definitionally the same
// estimator as constructing from the merged center list with the
// inherited bandwidths and the new mass — density must agree everywhere.
func TestExtendMatchesFromCenters(t *testing.T) {
	rng := stats.NewRNG(22)
	a := gaussianBlob(40, geom.Point{0, 0}, 1, rng)
	b := gaussianBlob(8, geom.Point{2, 2}, 0.5, rng)
	h := []float64{0.4, 0.4}
	prior, err := FromCenters(Epanechnikov{}, a, h, 4000)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := prior.Extend(b, 4400)
	if err != nil {
		t.Fatal(err)
	}
	merged := append(append([]geom.Point{}, a...), b...)
	want, err := FromCenters(Epanechnikov{}, merged, h, 4400)
	if err != nil {
		t.Fatal(err)
	}
	probes := gaussianBlob(200, geom.Point{1, 1}, 1.5, rng)
	for _, p := range probes {
		if got, w := ext.Density(p), want.Density(p); math.Abs(got-w) > 1e-9*(1+w) {
			t.Fatalf("density(%v) = %v, from-scratch %v", p, got, w)
		}
	}
}

func TestExtendValidation(t *testing.T) {
	rng := stats.NewRNG(24)
	prior, err := FromCenters(Epanechnikov{}, gaussianBlob(10, geom.Point{0, 0}, 1, rng), []float64{1, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prior.Extend([]geom.Point{{1, 2, 3}}, 110); err == nil {
		t.Error("dims-mismatched delta center accepted")
	}
	if _, err := prior.Extend([]geom.Point{{math.NaN(), 0}}, 110); err == nil {
		t.Error("NaN delta center accepted")
	}
	if _, err := prior.Extend([]geom.Point{{1, 1}}, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

// TestExtendDeltaCenterRule pins the one delta-center rule the server's
// extend step and the append experiment share: round(ks·m/n) centers
// reservoir-sampled from the delta, clamped to [1, min(ks, m)], over a
// dataset grown to n+m points.
func TestExtendDeltaCenterRule(t *testing.T) {
	for _, tc := range []struct {
		n, ks, m, want int
	}{
		{25000, 500, 250, 5},   // the append experiment's 1% delta
		{25000, 500, 1250, 25}, // and its 5% delta
		{2000, 64, 10, 1},      // round(0.32) = 0, clamped up to 1
		{2000, 64, 47, 2},      // round(1.504) = 2, not truncated to 1
		{100, 50, 400, 50},     // round(200) clamped to ks
		{40, 20, 3, 2},         // round(1.5) = 2 ≤ m
		{10, 10, 3, 3},         // round(3) = m
	} {
		rng := stats.NewRNG(uint64(tc.n + tc.m))
		prior, err := Build(dataset.MustInMemory(gaussianBlob(tc.n, geom.Point{0, 0}, 1, rng)), Options{NumKernels: tc.ks}, rng)
		if err != nil {
			t.Fatal(err)
		}
		delta := dataset.MustInMemory(gaussianBlob(tc.m, geom.Point{2, 2}, 0.5, rng))
		ext, err := prior.ExtendDelta(delta, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		if got := ext.NumKernels() - prior.NumKernels(); got != tc.want || ext.N() != tc.n+tc.m {
			t.Errorf("n=%d ks=%d m=%d: %d delta centers over N=%d, want %d over %d",
				tc.n, tc.ks, tc.m, got, ext.N(), tc.want, tc.n+tc.m)
		}
	}
}
