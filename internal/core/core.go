// Package core implements density-biased sampling, the central contribution
// of the paper (§2.2, Figure 1).
//
// Given a density estimator f for a dataset D of n points, a target sample
// size b, and a bias exponent a, the sampler includes each point x in the
// sample with probability
//
//	P(x ∈ S) = min(1, (b / k_a) · f(x)^a)    where  k_a = Σ_{x_i ∈ D} f(x_i)^a
//
// This realizes the two properties of §2: the inclusion probability is a
// function of the local density around x (Property 1), and the expected
// sample size is b (Property 2, exact when no probability saturates at 1).
//
// The exponent a tunes the bias (§2.2):
//
//	a = 0    uniform random sampling;
//	a > 0    dense regions oversampled (robust cluster detection under
//	         noise — the paper recommends a = 1);
//	-1 < a < 0  sparse regions oversampled while relative densities are
//	         preserved with high probability (Lemma 1; finds small or
//	         sparse clusters dominated by large dense ones — the paper
//	         recommends a = -0.5);
//	a = -1   equal expected sample mass in equal volumes;
//	a < -1   very sparse regions dominate (outlier hunting).
//
// The sampler is decoupled from the density estimator: anything providing
// Density(p) works (a kernel estimator, a grid histogram, or an exact
// oracle). This decoupling is an explicit design claim of the paper versus
// Palmer-Faloutsos ("our approach … decouples density estimation and biased
// sampling", §1.1).
package core

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/stats"
)

// DensityEstimator supplies the local density of the dataset around a
// point. Implementations must return non-negative finite values, and must
// be safe for concurrent Density calls when sampling runs with a
// Parallelism other than 1 (a pure function of the point, as every
// estimator in this repository is, qualifies).
type DensityEstimator interface {
	Density(p geom.Point) float64
}

// DensityBatcher is optionally implemented by estimators that can evaluate
// a whole block of points at once (kde.Estimator does), amortizing
// traversal state across the block. The chunked scans prefer it over
// per-point Density calls. A batch counts its evaluation work into rec,
// the Recorder of the call it serves (nil records nothing).
type DensityBatcher interface {
	DensityBatch(pts []geom.Point, out []float64, rec *obs.Recorder)
}

// evalDensities fills out[:len(pts)] with est's density at each point,
// through the batch interface when available, which counts into rec.
func evalDensities(est DensityEstimator, pts []geom.Point, out []float64, rec *obs.Recorder) {
	if b, ok := est.(DensityBatcher); ok {
		b.DensityBatch(pts, out, rec)
		return
	}
	for i, p := range pts {
		out[i] = est.Density(p)
	}
}

// coinScratch is the pooled per-block working set of the fused
// density→power→coin pass: a density/weight buffer and the (index, prob)
// pairs of the block's selected points, recorded before any allocation so
// the selection loop touches nothing but scratch.
type coinScratch struct {
	dens  []float64
	idx   []int32
	probs []float64
}

var coinScratchPool = sync.Pool{New: func() interface{} { return new(coinScratch) }}

func getCoinScratch(n int) *coinScratch {
	sc := coinScratchPool.Get().(*coinScratch)
	if cap(sc.dens) < n {
		sc.dens = make([]float64, n)
		sc.idx = make([]int32, n)
		sc.probs = make([]float64, n)
	}
	sc.dens = sc.dens[:n]
	sc.idx = sc.idx[:n]
	sc.probs = sc.probs[:n]
	return sc
}

// sampleArena hands out exactly-sized WeightedPoint segments and
// coordinate slabs carved from shared chunks, replacing the per-point
// Clone of selected points. Chunks are append-only: growing the arena
// allocates a fresh chunk and previously carved segments stay valid (the
// GC keeps old chunks alive through them). One mutex-guarded bump per
// block, two allocations per chunk — amortized, zero allocations per
// block in steady state.
type sampleArena struct {
	mu     sync.Mutex
	dims   int
	wps    []dataset.WeightedPoint
	coords []float64
}

const arenaChunk = 1024

func (a *sampleArena) alloc(k int) ([]dataset.WeightedPoint, []float64) {
	if k == 0 {
		return nil, nil
	}
	a.mu.Lock()
	if k > cap(a.wps)-len(a.wps) {
		size := arenaChunk
		if k > size {
			size = k
		}
		a.wps = make([]dataset.WeightedPoint, 0, size)
	}
	wps := a.wps[len(a.wps) : len(a.wps)+k : len(a.wps)+k]
	a.wps = a.wps[:len(a.wps)+k]
	cs := k * a.dims
	if cs > cap(a.coords)-len(a.coords) {
		size := arenaChunk * a.dims
		if cs > size {
			size = cs
		}
		a.coords = make([]float64, 0, size)
	}
	coords := a.coords[len(a.coords) : len(a.coords)+cs : len(a.coords)+cs]
	a.coords = a.coords[:len(a.coords)+cs]
	a.mu.Unlock()
	return wps, coords
}

// fillBlockSample copies the selected points of one block out of the scan
// buffer into arena-carved storage and builds their weighted entries.
func fillBlockSample(arena *sampleArena, pts []geom.Point, sc *coinScratch, count int) []dataset.WeightedPoint {
	wps, coords := arena.alloc(count)
	d := arena.dims
	for k := 0; k < count; k++ {
		dst := coords[k*d : (k+1)*d : (k+1)*d]
		copy(dst, pts[sc.idx[k]])
		wps[k] = dataset.WeightedPoint{P: geom.Point(dst), W: 1 / sc.probs[k]}
	}
	return wps
}

// centersEstimator is optionally implemented by estimators that expose
// their own construction sample (kernel centers) and represented size; the
// one-pass variant uses it to approximate the normalizer k_a without an
// extra dataset pass.
type centersEstimator interface {
	Centers() []geom.Point
	N() int
}

// Options configure one biased-sampling run.
type Options struct {
	// Alpha is the bias exponent a.
	Alpha float64

	// TargetSize is the expected sample size b. Must be positive.
	TargetSize int

	// FloorDensity replaces estimated densities below it before
	// exponentiation. It matters for a < 0: without a floor, a few points
	// in regions the estimator reports as (near-)empty would receive
	// enormous f(x)^a weights, dominate the normalizer k_a, saturate
	// their own inclusion probability at 1, and starve the rest of the
	// sample. When zero, the floor defaults to one tenth of the 5th
	// percentile of the density at the estimator's own centers (which are
	// dataset points, hence density-representative); if the estimator
	// does not expose centers, a tiny absolute floor is used.
	FloorDensity float64

	// Densities, when non-nil, holds f(x) for every row of the dataset in
	// row order, as the estimator's DensityBatch returns it: the weigh
	// step reads each row's density at its offset instead of evaluating
	// it, and the estimator then only resolves the default floor.
	// DensityBatch returns the same f for any batching, so the sample is
	// bit-identical either way. Its length must be the dataset's; the
	// draw reads it and never copies or writes it.
	Densities []float64

	// OnePass, when true, skips the exact normalization pass and instead
	// approximates k_a from the estimator's own centers, integrating
	// density estimation and sampling into a single data pass, as §2.2
	// describes ("It is possible to integrate both steps in one … In this
	// case however we only compute an approximation of the sampling
	// probability"). It requires an estimator exposing Centers and N.
	OnePass bool

	// Parallelism bounds the workers the chunked scans run on:
	// 0 uses runtime.GOMAXPROCS(0), 1 is the serial reference path.
	// For a fixed seed and BlockSize the sample is bit-for-bit identical
	// at every setting — block boundaries depend only on the dataset size,
	// each block consumes its own split RNG stream keyed by block index,
	// and per-block results are reduced in block order (see DESIGN.md,
	// "Parallel execution model").
	Parallelism int

	// BlockSize is the number of points per scan block
	// (0 = parallel.DefaultBlockSize). It is part of the sampling run's
	// identity: changing it reassigns points to RNG streams and therefore
	// changes which points are drawn, while changing Parallelism never
	// does.
	BlockSize int

	// Obs, when non-nil, records the run: span timings for the
	// normalization and coin-flip passes, the counter catalogue (points
	// scanned, data passes, coin flips, saturated probabilities, sampled
	// points, and the kernel evaluations and kd-tree traversal of every
	// density batch the run evaluates), and the
	// sample_norm / sample_data_passes gauges. Recording is per-block and
	// per-stage, never per-point, and consults no randomness: the drawn
	// sample is bit-identical with Obs nil or set, at every Parallelism.
	Obs *obs.Recorder

	// Progress, when non-nil, is called after each completed scan block
	// with (points delivered so far this pass, dataset size). The exact
	// algorithm makes two passes (one at a = 0), so the callback sees
	// `done` restart once. Must be safe for concurrent use when
	// Parallelism is not 1.
	Progress func(done, total int)

	// Ctx, when non-nil, cancels the draw: both scan passes check it at
	// block granularity and a done context aborts with
	// dataset.ErrCanceled (wrapping the context's own error). A draw that
	// completes is unaffected by how close its deadline came.
	Ctx context.Context

	// VerifyNorm, with OnePass and a non-nil Obs, spends one extra
	// dataset pass computing the exact normalizer k_a next to the
	// one-pass approximation and records their relative disagreement in
	// the sample_norm_rel_error gauge — the §2.2 approximation quality,
	// otherwise invisible. The extra pass is diagnostic only: the sample
	// is still drawn from the approximate normalizer and
	// Sample.DataPasses still reports the algorithm's own passes.
	VerifyNorm bool
}

// Sample is the result of a biased-sampling run.
type Sample struct {
	// Points holds the sampled points, each with weight 1/P(included) —
	// the inverse-probability weights §3.1 prescribes for objective
	// functions that weight original points equally (k-means, k-medoids).
	Points []dataset.WeightedPoint

	// Norm is the normalizer k_a used (exact or approximated).
	Norm float64

	// DataPasses is the number of Figure 1 passes of the algorithm that
	// drew the sample (excluding the estimator-construction pass): 2 for
	// the exact algorithm, 1 for the one-pass variant. At a = 0 the exact
	// draw knows the first pass's sum, k_0 = n, and scans the dataset
	// once, but still reports 2; the dataset's own pass counter records
	// the scans actually made.
	DataPasses int

	// Saturated counts points whose inclusion probability was clipped at
	// 1. When zero, E[len(Points)] equals the target size exactly.
	Saturated int
}

// PlainPoints returns just the sampled points, for algorithms that do not
// use weights (the CURE-style hierarchical clusterer of §3.1).
func (s *Sample) PlainPoints() []geom.Point {
	pts := make([]geom.Point, len(s.Points))
	for i, wp := range s.Points {
		pts[i] = wp.P
	}
	return pts
}

// Draw runs the biased-sampling algorithm of Figure 1 over ds.
//
// The exact variant makes two passes: one to compute k_a = Σ f'(x_i) and
// one to flip the inclusion coin per point. With OnePass set it makes a
// single pass, approximating k_a from the estimator's centers. At a = 0
// every f'(x) is 1, so k_0 = n exactly: the exact draw skips the first
// pass, needs no density, and accepts a nil est.
//
// Both passes are the block engine's chunked scans: one draw of rng
// (DrawStreamBase) is the base every block's coin stream derives from,
// block i flips its coins from stats.StreamAt(base, i), and the per-block
// selections concatenate in block order. The sample is therefore a
// function of (dataset, estimator, opts, seed) only — running with 1
// worker or 8 returns byte-identical points, weights, Norm, and
// Saturated. rng advances by one draw, not once per point.
func Draw(ds dataset.Dataset, est DensityEstimator, opts Options, rng *stats.RNG) (*Sample, error) {
	if opts.TargetSize <= 0 {
		return nil, errors.New("core: TargetSize must be positive")
	}
	n := ds.Len()
	if n == 0 {
		return nil, errors.New("core: empty dataset")
	}
	e, err := newEngine(ds, est, opts)
	if err != nil {
		return nil, err
	}
	defer e.release()

	rec := opts.Obs
	span := rec.StartSpan("draw")
	defer span.End()

	var norm float64
	passes := 0
	if opts.OnePass {
		ce, ok := est.(centersEstimator)
		if !ok {
			return nil, errors.New("core: OnePass requires an estimator exposing Centers and N")
		}
		if norm, err = approxNorm(ce, opts.Alpha, e.floor); err != nil {
			return nil, err
		}
		if opts.VerifyNorm && rec != nil {
			vspan := rec.StartSpan("draw/verify_norm")
			verify := *e
			verify.opts.Progress = nil
			exact, verr := verify.exactNorm(false)
			vspan.AddPoints(int64(n))
			vspan.End()
			if verr != nil {
				return nil, verr
			}
			if exact > 0 {
				rec.Gauge(obs.GaugeNormRelError).Set(math.Abs(norm-exact) / exact)
			}
		}
	} else if opts.Alpha == 0 {
		// The pass would fold one partial of ones per block, an exact
		// float sum below 2^53: n itself.
		norm = float64(n)
		passes++
	} else {
		nspan := rec.StartSpan("draw/normalize")
		norm, err = e.exactNorm(true)
		nspan.AddPoints(int64(n))
		nspan.End()
		if err != nil {
			return nil, err
		}
		passes++
	}
	if err := checkNorm(norm); err != nil {
		return nil, err
	}

	sspan := rec.StartSpan("draw/sample")
	blocks, err := e.flip(norm, DrawStreamBase(rng), 0)
	sspan.AddPoints(int64(n))
	sspan.End()
	if err != nil {
		return nil, err
	}
	passes++

	out := &Sample{Norm: norm, DataPasses: passes}
	out.gather(blocks)
	span.AddPoints(int64(n))
	rec.Gauge(obs.GaugeSampleNorm).Set(norm)
	rec.Gauge(obs.GaugeSampleDataPasses).Set(float64(passes))
	return out, nil
}

// flipCoins flips the inclusion coin for each biased weight against the
// normalizer, recording the (index, prob) pairs of the selections into sc.
// Every point draws exactly one uniform u from brng and is kept when
// u < coinProb, so a clipped probability always keeps its point and one
// that underflows to 0 never does, yet both consume their u. A block's
// stream therefore holds one variate per point whatever the
// probabilities: ProposeBlocks draws the same u's, and ResolveBlocks
// decides every block of a sharded draw by this rule.
func flipCoins(weights []float64, b, norm float64, brng *stats.RNG, sc *coinScratch) (count, sat int) {
	for i := range weights {
		prob, clipped := coinProb(weights[i], b, norm)
		if clipped {
			sat++
		}
		if brng.Float64() < prob {
			sc.idx[count] = int32(i)
			sc.probs[count] = prob
			count++
		}
	}
	return count, sat
}

// coinProb is the coin rule's inclusion probability min(1, b·w/norm) and
// whether it clipped at 1.
func coinProb(w, b, norm float64) (prob float64, clipped bool) {
	if prob = b * w / norm; prob >= 1 {
		return 1, true
	}
	return prob, false
}

// ExactNorm computes k_a = Σ_{x ∈ ds} max(f(x), floor)^a in one serial
// pass of the block engine's weigh step. Each block accumulates its
// partial sum over its points in index order, and the partials are
// reduced in block order (FoldNorm) — an ordered reduction, not atomic
// adds — so the engine's k_a is bit-for-bit identical for every
// parallelism, and this serial one equals Draw's. The floor is taken as
// given: unlike Options.FloorDensity, zero means no floor.
func ExactNorm(ds dataset.Dataset, est DensityEstimator, alpha, floor float64) (float64, error) {
	if est == nil {
		return 0, errNilEstimator
	}
	e := &engine{ds: ds, est: est, opts: Options{Alpha: alpha, Parallelism: 1}, floor: floor}
	return e.exactNorm(false)
}

// approxNorm estimates k_a from the estimator's own centers. The centers
// are (approximately) a uniform sample of the dataset, so
// k_a ≈ (n/ks) Σ_{c ∈ centers} f(c)^a. At a = 0 every f(c)^a is 1, so no
// center density is evaluated; the sum of ks ones is exact.
func approxNorm(ce centersEstimator, alpha, floor float64) (float64, error) {
	est, ok := ce.(DensityEstimator)
	if !ok {
		return 0, errors.New("core: estimator does not provide Density")
	}
	centers := ce.Centers()
	if len(centers) == 0 {
		return 0, errors.New("core: estimator has no centers")
	}
	var sum float64
	if alpha == 0 {
		sum = float64(len(centers))
	} else {
		for _, c := range centers {
			sum += biasedWeight(est.Density(c), alpha, floor)
		}
	}
	return sum * float64(ce.N()) / float64(len(centers)), nil
}

// biasedWeight computes f'(x) = max(f, floor)^a.
func biasedWeight(f, alpha, floor float64) float64 {
	if f < floor {
		f = floor
	}
	if alpha == 0 {
		return 1
	}
	if alpha == 1 {
		return f
	}
	return math.Pow(f, alpha)
}

func defaultFloor(est DensityEstimator) float64 {
	ce, ok := est.(centersEstimator)
	if !ok {
		return 1e-9
	}
	centers := ce.Centers()
	if len(centers) == 0 {
		return 1e-9 * float64(ce.N())
	}
	dens := make([]float64, 0, len(centers))
	for _, c := range centers {
		if f := est.Density(c); f > 0 {
			dens = append(dens, f)
		}
	}
	if len(dens) == 0 {
		return 1e-9 * float64(ce.N())
	}
	return 0.1 * stats.Quantile(dens, 0.05)
}
