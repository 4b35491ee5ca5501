package dataset

import (
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

func grid(n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{float64(i), float64(i * i)})
	}
	return pts
}

func TestInMemoryBasics(t *testing.T) {
	ds := MustInMemory(grid(10))
	if ds.Len() != 10 || ds.Dims() != 2 {
		t.Fatalf("len/dims = %d/%d", ds.Len(), ds.Dims())
	}
	count := 0
	if err := Scan(ds, func(p geom.Point) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("scan visited %d points", count)
	}
	if ds.Passes() != 1 {
		t.Errorf("Passes = %d", ds.Passes())
	}
}

func TestInMemoryValidation(t *testing.T) {
	if _, err := NewInMemory(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewInMemory([]geom.Point{{1, 2}, {1}}); err == nil {
		t.Error("ragged dimensions accepted")
	}
	bad := []geom.Point{{1, 2}, {1, nan()}}
	if _, err := NewInMemory(bad); err == nil {
		t.Error("NaN point accepted")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestScanEarlyStop(t *testing.T) {
	ds := MustInMemory(grid(10))
	count := 0
	err := Scan(ds, func(p geom.Point) error {
		count++
		if count == 3 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStopScan leaked: %v", err)
	}
	if count != 3 {
		t.Errorf("visited %d, want 3", count)
	}
	if ds.Passes() != 1 {
		t.Errorf("early stop must still count a pass, got %d", ds.Passes())
	}
}

func TestScanErrorPropagates(t *testing.T) {
	ds := MustInMemory(grid(3))
	boom := errors.New("boom")
	if err := Scan(ds, func(geom.Point) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("got %v, want boom", err)
	}
}

func TestCollect(t *testing.T) {
	src := MustInMemory(grid(5))
	dst, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 5 {
		t.Errorf("collected %d", dst.Len())
	}
	// Clone semantics: mutating dst must not affect src.
	dst.Points()[0][0] = 999
	if src.Points()[0][0] == 999 {
		t.Error("Collect aliased source points")
	}
}

func TestBounds(t *testing.T) {
	ds := MustInMemory([]geom.Point{{1, 5}, {-2, 3}, {0, 7}})
	r, err := Bounds(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Min.Equal(geom.Point{-2, 3}) || !r.Max.Equal(geom.Point{1, 7}) {
		t.Errorf("bounds = %v", r)
	}
}

func TestBernoulliExpectedSize(t *testing.T) {
	pts := make([]geom.Point, 10000)
	for i := range pts {
		pts[i] = geom.Point{float64(i)}
	}
	ds := MustInMemory(pts)
	rng := stats.NewRNG(1)
	s, err := Bernoulli(ds, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Binomial(10000, 0.1): sd = 30, allow 5 sd.
	if len(s) < 850 || len(s) > 1150 {
		t.Errorf("Bernoulli size = %d, want ~1000", len(s))
	}
}

func TestBernoulliOversample(t *testing.T) {
	ds := MustInMemory(grid(10))
	s, err := Bernoulli(ds, 100, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// b >= n makes the probability 1: everything sampled.
	if len(s) != 10 {
		t.Errorf("oversample kept %d of 10", len(s))
	}
}

func TestBernoulliNegative(t *testing.T) {
	ds := MustInMemory(grid(10))
	if _, err := Bernoulli(ds, -1, stats.NewRNG(1)); err == nil {
		t.Error("negative b accepted")
	}
}

func TestReservoirExactSize(t *testing.T) {
	ds := MustInMemory(grid(1000))
	s, err := Reservoir(ds, 50, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 50 {
		t.Errorf("reservoir size = %d", len(s))
	}
}

func TestReservoirSmallerDataset(t *testing.T) {
	ds := MustInMemory(grid(5))
	s, err := Reservoir(ds, 50, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Errorf("reservoir kept %d of 5", len(s))
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each point must appear in the reservoir with probability k/n.
	pts := grid(20)
	ds := MustInMemory(pts)
	rng := stats.NewRNG(7)
	counts := make(map[float64]int)
	const trials = 5000
	for i := 0; i < trials; i++ {
		s, err := Reservoir(ds, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range s {
			counts[p[0]]++
		}
	}
	want := float64(trials) * 5 / 20 // 1250
	for v, c := range counts {
		if float64(c) < want*0.85 || float64(c) > want*1.15 {
			t.Errorf("point %v drawn %d times, want ~%v", v, c, want)
		}
	}
}

func TestReservoirInvalidSize(t *testing.T) {
	ds := MustInMemory(grid(5))
	if _, err := Reservoir(ds, 0, stats.NewRNG(1)); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestUniformWeighted(t *testing.T) {
	s := []geom.Point{{1}, {2}}
	wp := UniformWeighted(s, 100)
	if len(wp) != 2 || wp[0].W != 50 {
		t.Errorf("UniformWeighted = %+v", wp)
	}
	if UniformWeighted(nil, 10) != nil {
		t.Error("empty sample should give nil")
	}
}

func TestSampleClonesPoints(t *testing.T) {
	pts := grid(10)
	ds := MustInMemory(pts)
	s, err := Reservoir(ds, 10, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	s[0][0] = -1
	for _, p := range pts {
		if p[0] == -1 {
			t.Fatal("Reservoir aliased dataset points")
		}
	}
}
