package dataset

import (
	"errors"

	"repro/internal/geom"
	"repro/internal/stats"
)

// Bernoulli draws a uniform random sample by sequentially scanning ds and
// keeping each point independently with probability b/|ds|. This is the
// uniform-sampling baseline of §4.2: the expected sample size is b, and the
// realized size is binomially distributed around it.
func Bernoulli(ds Dataset, b int, rng *stats.RNG) ([]geom.Point, error) {
	if b < 0 {
		return nil, errors.New("dataset: negative sample size")
	}
	n := ds.Len()
	if n == 0 {
		return nil, errors.New("dataset: Bernoulli sample of empty dataset")
	}
	p := float64(b) / float64(n)
	out := make([]geom.Point, 0, b+b/4+16)
	err := Scan(ds, func(pt geom.Point) error {
		if rng.Bernoulli(p) {
			out = append(out, pt.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reservoir draws a uniform random sample of exactly min(k, |ds|) points in
// one pass using Vitter's Algorithm R. Unlike Bernoulli it needs no prior
// knowledge of the dataset size and returns an exact-size sample; the KDE
// uses it to choose kernel centers (§2.1, "we use sample points to
// initialize the kernel centers").
func Reservoir(ds Dataset, k int, rng *stats.RNG) ([]geom.Point, error) {
	if k <= 0 {
		return nil, errors.New("dataset: non-positive reservoir size")
	}
	res := make([]geom.Point, 0, k)
	seen := 0
	err := Scan(ds, func(p geom.Point) error {
		seen++
		if len(res) < k {
			res = append(res, p.Clone())
			return nil
		}
		if j := rng.Intn(seen); j < k {
			res[j] = p.Clone()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return nil, errors.New("dataset: Reservoir sample of empty dataset")
	}
	return res, nil
}

// WeightedPoint pairs a sampled point with the weight 1/P(included), the
// inverse of its inclusion probability. Section 3.1 prescribes these weights
// when a biased sample feeds an algorithm, such as k-means, whose objective
// weights every original point equally.
type WeightedPoint struct {
	P geom.Point
	W float64
}

// UniformWeighted wraps a uniform sample with the constant weight n/b that
// makes it comparable to biased weighted samples.
func UniformWeighted(sample []geom.Point, n int) []WeightedPoint {
	if len(sample) == 0 {
		return nil
	}
	w := float64(n) / float64(len(sample))
	out := make([]WeightedPoint, len(sample))
	for i, p := range sample {
		out[i] = WeightedPoint{P: p, W: w}
	}
	return out
}
