package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
//
// NaN observations are ignored: they carry no order information, and
// letting them sort (NaNs order before everything) would silently shift
// every order statistic — the healthz latency digest would report a
// too-low p99 forever after one bad observation. An all-NaN input
// returns NaN, the honest "no data" answer for a slice that is not
// empty but contains no usable values.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic("stats: Quantile out of [0,1]")
	}
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// ChernoffUpper bounds P(X ≥ (1+δ)μ) for a sum X of independent Bernoullis
// with mean μ: exp(-μ δ² / 3) for 0 < δ ≤ 1. The theory package uses the
// matching lower-tail bound to size samples.
func ChernoffUpper(mu, delta float64) float64 {
	if delta <= 0 {
		return 1
	}
	if delta > 1 {
		delta = 1
	}
	return math.Exp(-mu * delta * delta / 3)
}

// ChernoffLower bounds P(X ≤ (1-δ)μ) ≤ exp(-μ δ² / 2) for 0 < δ ≤ 1.
func ChernoffLower(mu, delta float64) float64 {
	if delta <= 0 {
		return 1
	}
	if delta > 1 {
		delta = 1
	}
	return math.Exp(-mu * delta * delta / 2)
}
