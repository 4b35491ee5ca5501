package stats

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// input must not be mutated
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); math.Abs(got-3) > 1e-12 {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
}

func TestQuantileSingleton(t *testing.T) {
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("singleton quantile = %v", got)
	}
}

// TestQuantileEdges is the edge audit for the inputs the healthz latency
// ring and the density-floor heuristic can feed Quantile: extreme q,
// single observations, and NaN-bearing slices (a NaN must not displace
// real order statistics — the regression the NaN filter guards against).
func TestQuantileEdges(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"q=0 min", []float64{3, 1, 2}, 0, 1},
		{"q=1 max", []float64{3, 1, 2}, 1, 3},
		{"q=1 single", []float64{42}, 1, 42},
		{"q=0 single", []float64{42}, 0, 42},
		{"two-element interpolation", []float64{10, 20}, 0.25, 12.5},
		{"nan ignored low q", []float64{nan, 5, 1, 3}, 0, 1},
		{"nan ignored high q", []float64{5, nan, 1, 3}, 1, 5},
		{"nan ignored median", []float64{nan, nan, 7}, 0.5, 7},
		{"negative values", []float64{-3, -1, -2}, 0.5, -2},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
	// All-NaN: not empty, but no usable values — NaN, not a panic and
	// not an arbitrary element.
	if got := Quantile([]float64{nan, nan}, 0.5); !math.IsNaN(got) {
		t.Errorf("all-NaN quantile = %v, want NaN", got)
	}
	for _, q := range []float64{-0.1, 1.1, nan} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(q=%v) should panic", q)
				}
			}()
			Quantile([]float64{1, 2}, q)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile(empty) should panic")
			}
		}()
		Quantile(nil, 0.5)
	}()
}

func TestChernoffBounds(t *testing.T) {
	// Bounds must be in (0,1] and decrease with μ and δ.
	if ChernoffUpper(10, 0.5) >= ChernoffUpper(10, 0.25) {
		t.Error("upper bound not decreasing in delta")
	}
	if ChernoffLower(20, 0.5) >= ChernoffLower(10, 0.5) {
		t.Error("lower bound not decreasing in mu")
	}
	if ChernoffUpper(10, 0) != 1 || ChernoffLower(10, -1) != 1 {
		t.Error("degenerate delta should give trivial bound 1")
	}
	// Empirical sanity: P(Bin(1000, 0.5) <= 400) is far below the bound.
	r := NewRNG(99)
	const trials = 2000
	bad := 0
	for i := 0; i < trials; i++ {
		c := 0
		for j := 0; j < 1000; j++ {
			if r.Bernoulli(0.5) {
				c++
			}
		}
		if float64(c) <= 400 {
			bad++
		}
	}
	bound := ChernoffLower(500, 0.2)
	if float64(bad)/trials > bound {
		t.Errorf("empirical tail %v exceeds Chernoff bound %v", float64(bad)/trials, bound)
	}
}
