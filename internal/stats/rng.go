// Package stats provides the statistical plumbing shared across the
// repository: a deterministic, splittable random number generator, running
// moments (Welford), histograms, quantiles, and the tail bounds used by the
// sample-size theory in internal/theory.
//
// All randomness in this repository flows through stats.RNG so that every
// experiment, test, and benchmark is reproducible from a single seed.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on the PCG64
// (PCG-XSL-RR 128/64) generator. It is not safe for concurrent use; use
// Split to derive independent streams for concurrent work.
type RNG struct {
	hi, lo uint64 // 128-bit state
	// cached normal variate for the Box-Muller pair
	hasGauss bool
	gauss    float64
}

const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// NewRNG returns a generator seeded from the given 64-bit seed. Distinct
// seeds give statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := seededRNG(seed)
	return &r
}

// seededRNG is NewRNG by value.
func seededRNG(seed uint64) RNG {
	r := RNG{hi: seed, lo: seed ^ Golden}
	// Warm the state so nearby seeds diverge immediately.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Split returns a new generator whose stream is independent of r's.
// It advances r.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xda942042e4dd58b5)
}

// Splits returns n generators with mutually independent streams, all
// derived from a single draw of r (which advances exactly once, regardless
// of n). Stream i is a pure function of that draw and i, so a caller that
// assigns stream i to work unit i gets the same per-unit randomness no
// matter how many units there are in flight or on how many goroutines they
// run — the property the parallel sampler's determinism rests on.
func (r *RNG) Splits(n int) []*RNG {
	if n <= 0 {
		return nil
	}
	base := r.Uint64()
	out := make([]*RNG, n)
	for i := range out {
		out[i] = NewRNG(Mix64(base + uint64(i)*Golden))
	}
	return out
}

// SplitsValues is Splits with the generators stored by value into out
// (reused when its capacity suffices, reallocated otherwise): stream i is
// bit-identical to Splits(n)[i] for the same state of r. It exists so hot
// paths can fan one draw of r out into per-block streams with a single
// allocation instead of one per stream.
func (r *RNG) SplitsValues(n int, out []RNG) []RNG {
	if n <= 0 {
		return out[:0]
	}
	if cap(out) < n {
		out = make([]RNG, n)
	}
	out = out[:n]
	base := r.Uint64()
	for i := range out {
		out[i] = StreamAt(base, i)
	}
	return out
}

// StreamAt returns stream i of the fan-out that Splits/SplitsValues derive
// from one draw of a parent generator: StreamAt(base, i) is bit-identical
// to SplitsValues(n, nil)[i] when base was the parent's Uint64 draw. It
// lets a distributed caller reconstruct any single stream from (base, i)
// alone — a shard worker handed the base can flip exactly the coins the
// single-node sampler would flip for its blocks, without materializing the
// other shards' streams.
func StreamAt(base uint64, i int) RNG {
	return seededRNG(Mix64(base + uint64(i)*Golden))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	// 128-bit multiply-add state update.
	hi, lo := mul128(r.hi, r.lo, pcgMulHi, pcgMulLo)
	lo, carry := add64(lo, pcgIncLo)
	hi = hi + pcgIncHi + carry
	r.hi, r.lo = hi, lo
	// XSL-RR output function.
	xored := hi ^ lo
	rot := uint(hi >> 58)
	return xored>>rot | xored<<((64-rot)&63)
}

func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	// (aHi*2^64 + aLo) * (bHi*2^64 + bLo) mod 2^128
	hi64, lo64 := mul64(aLo, bLo)
	hi = hi64 + aHi*bLo + aLo*bHi
	return hi, lo64
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

func add64(a, b uint64) (sum, carry uint64) {
	sum = a + b
	if sum < a {
		carry = 1
	}
	return
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// Uniform returns a uniform variate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box-Muller, cached pair).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, sigma float64) float64 {
	return mean + sigma*r.NormFloat64()
}

// Exp returns an exponential variate with rate lambda.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / lambda
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes s uniformly at random (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Zipf returns a variate in [1, n] with P(X=k) ∝ 1/k^s, via inverse-CDF on
// a precomputed table when repeated draws are needed use NewZipf instead.
func (r *RNG) Zipf(n int, s float64) int {
	z := NewZipf(n, s)
	return z.Draw(r)
}

// Zipfian is a reusable Zipf(n, s) sampler over {1, …, n}.
type Zipfian struct {
	cdf []float64
}

// NewZipf precomputes the CDF for a Zipf distribution with exponent s over
// {1, …, n}. Palmer-Faloutsos style cluster-size skew uses this.
func NewZipf(n int, s float64) *Zipfian {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	var tot float64
	for k := 1; k <= n; k++ {
		tot += 1 / math.Pow(float64(k), s)
		cdf[k-1] = tot
	}
	for i := range cdf {
		cdf[i] /= tot
	}
	return &Zipfian{cdf: cdf}
}

// Draw samples one value in [1, n].
func (z *Zipfian) Draw(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
