package stats

import "math"

// Moments accumulates count, mean and variance of a scalar stream using
// Welford's numerically stable single-pass update. The KDE bandwidth
// selector feeds one Moments per dimension during its single dataset pass.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the running moments.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Variance returns the unbiased sample variance (0 when fewer than 2 samples).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// MultiMoments tracks per-dimension Moments for a point stream.
type MultiMoments struct {
	dims []Moments
}

// NewMultiMoments returns an accumulator for d-dimensional points.
func NewMultiMoments(d int) *MultiMoments {
	return &MultiMoments{dims: make([]Moments, d)}
}

// Add incorporates one point; its length must match the accumulator's
// dimensionality.
func (m *MultiMoments) Add(p []float64) {
	if len(p) != len(m.dims) {
		panic("stats: MultiMoments dimension mismatch")
	}
	for i, v := range p {
		m.dims[i].Add(v)
	}
}

// Dim returns the accumulator for dimension i.
func (m *MultiMoments) Dim(i int) *Moments { return &m.dims[i] }
