// Incremental density-biased sampling for appendable datasets.
//
// The exact algorithm (Draw) spends two passes over all n points. When a
// dataset grows by a delta of m points and a sample of the prior prefix is
// already in hand, re-running Draw repeats work proportional to n even
// though only m points are new. ExtendDraw instead updates the prior sample
// with passes over the delta alone:
//
//	k_a' = k_base + D,  k_base = K·s^a,  D = Σ_{x ∈ delta} f'(x)^a
//
// where K is the prior normalizer, f' is the extended estimator, and s is
// the density rescaling the extension applies to old points (see carriedNorm
// below). The prior sample is thinned with keep-probability r = k_base/k_a'
// (each kept weight divided by r), and the delta points flip the usual
// inclusion coin against k_a'. Under the rescaling approximation
// f'(x) ≈ s·f(x) on the prior prefix, a thinned point's total inclusion
// probability is exactly min(1, b·f(x)^a/K)·r ≈ min(1, b·f'(x)^a/k_a'),
// the probability Draw would have used — so Property 2 is preserved:
//
//	E[|S|] = b·(k_base/k_a') + b·(D/k_a') = b      (modulo saturation)
//
// The approximation error on the prior prefix is what the drift budget
// tracks: each incremental step adds m/n' of relative drift, and the
// serving layer falls back to an exact rebuild once the accumulated drift
// exceeds its tolerance (RebuildSchedule). At tolerance 0 every generation
// rebuilds exactly and incremental sampling is never entered, so results
// are bit-for-bit identical to a from-scratch server.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/stats"
)

// NormState is the bookkeeping that makes a Sample extendable: the
// normalizer it was drawn against, the prefix length and kernel count it
// covers, and the relative drift accumulated since the last exact rebuild.
// A full Draw starts a lineage with Drift 0; each ExtendDraw returns the
// successor state.
type NormState struct {
	// K is the normalizer k_a the sample was drawn with.
	K float64
	// N is the dataset length the sample covers.
	N int
	// Kernels is the kernel count of the estimator the sample was drawn
	// with.
	Kernels int
	// Drift is the accumulated relative drift (Σ m_g/n_g over the
	// incremental steps since the last exact rebuild).
	Drift float64
}

// ExtendOptions configure one incremental draw. The embedded Options are
// interpreted as for Draw, except OnePass (unsupported: the incremental
// path already has the prior normalizer and never needs the one-pass
// approximation), Densities (unsupported: the delta passes evaluate f
// over the delta only) and Progress/VerifyNorm, which apply to the delta
// passes.
type ExtendOptions struct {
	Options

	// DeltaStart is the index where the delta begins; the prior sample
	// must cover exactly [0, DeltaStart) and ds must extend past it.
	DeltaStart int

	// Prior is the sample of ds[:DeltaStart] being extended. It is not
	// mutated; kept points are shared with the new sample (samples are
	// immutable once drawn).
	Prior *Sample

	// PriorNorm is the NormState returned alongside Prior (or synthesized
	// from a full Draw via NormState{K: s.Norm, N: n, Kernels: ks}).
	PriorNorm NormState
}

// ExtendDraw extends a prior sample of ds[:DeltaStart] to a sample of all
// of ds, spending two passes over the delta only: one to accumulate the
// delta's normalizer contribution D, one to flip the delta's inclusion
// coins. est must be the extended estimator (the prior estimator after
// Extend over delta centers) and must expose Centers and N.
//
// Determinism matches Draw: one draw of rng (DrawStreamBase) is the base
// of a thinning stream, stats.StreamAt(base, 0), and of delta block b's
// stream, stats.StreamAt(base, 1+b); the delta blocks are laid out by
// (delta length, BlockSize) alone, and per-block selections concatenate in
// block order — so for a fixed seed the result is bit-for-bit identical at
// every Parallelism.
//
// The returned Sample reports the delta passes in DataPasses and the
// delta's saturation count in Saturated (the prior sample's saturated
// coins are not re-examined — re-deciding them would need a full pass).
func ExtendDraw(ds dataset.Dataset, est DensityEstimator, opts ExtendOptions, rng *stats.RNG) (*Sample, NormState, error) {
	var zero NormState
	if opts.TargetSize <= 0 {
		return nil, zero, errors.New("core: TargetSize must be positive")
	}
	if opts.OnePass {
		return nil, zero, errors.New("core: ExtendDraw does not support OnePass")
	}
	if opts.Densities != nil {
		return nil, zero, errors.New("core: ExtendDraw does not read stored densities")
	}
	if opts.Prior == nil {
		return nil, zero, errors.New("core: ExtendDraw requires a prior sample")
	}
	prior := opts.PriorNorm
	if opts.DeltaStart != prior.N {
		return nil, zero, fmt.Errorf("core: delta starts at %d but prior covers %d points", opts.DeltaStart, prior.N)
	}
	n := ds.Len()
	m := n - opts.DeltaStart
	if m <= 0 {
		return nil, zero, fmt.Errorf("core: dataset has %d points, none beyond the prior's %d", n, opts.DeltaStart)
	}
	w, err := dataset.Window(ds, opts.DeltaStart, n)
	if err != nil {
		return nil, zero, err
	}
	e, err := newEngine(w, est, opts.Options)
	if err != nil {
		return nil, zero, err
	}
	defer e.release()
	kbase, ks, err := carriedNorm(est, prior, n, opts.Alpha)
	if err != nil {
		return nil, zero, err
	}

	rec := opts.Obs
	span := rec.StartSpan("extend_draw")
	defer span.End()

	// Pass 1 over the delta: D = Σ_{delta} f'(x)^a, with the biased
	// weights kept for the coin pass when the delta is memory-resident.
	nspan := rec.StartSpan("extend_draw/normalize")
	d, err := e.exactNorm(true)
	nspan.AddPoints(int64(m))
	nspan.End()
	if err != nil {
		return nil, zero, err
	}

	kNew := kbase + d
	if err := checkNorm(kNew); err != nil {
		return nil, zero, err
	}
	r := kbase / kNew
	base := DrawStreamBase(rng)

	// Thin the prior sample sequentially from stream 0: each kept point's
	// inclusion probability shrinks by r, so its inverse-probability
	// weight grows by 1/r.
	tspan := rec.StartSpan("extend_draw/thin")
	thin := stats.StreamAt(base, 0)
	out := &Sample{Norm: kNew, DataPasses: 2, Points: make([]dataset.WeightedPoint, 0, len(opts.Prior.Points))}
	for _, wp := range opts.Prior.Points {
		if thin.Bernoulli(r) {
			out.Points = append(out.Points, dataset.WeightedPoint{P: wp.P, W: wp.W / r})
		}
	}
	rec.Counter(obs.CtrCoinFlips).Add(int64(len(opts.Prior.Points)))
	tspan.End()

	// Pass 2 over the delta: the usual inclusion coin against k_a', delta
	// block b drawing from stream 1+b.
	sspan := rec.StartSpan("extend_draw/sample")
	blocks, err := e.flip(kNew, base, 1)
	sspan.AddPoints(int64(m))
	sspan.End()
	if err != nil {
		return nil, zero, err
	}
	out.gather(blocks)
	span.AddPoints(int64(m))
	rec.Counter(obs.CtrIncDraws).Inc()
	rec.Gauge(obs.GaugeSampleNorm).Set(kNew)
	rec.Gauge(obs.GaugeSampleDataPasses).Set(float64(out.DataPasses))

	next := NormState{
		K:       kNew,
		N:       n,
		Kernels: ks,
		Drift:   prior.Drift + float64(m)/float64(n),
	}
	return out, next, nil
}

// carriedNorm is k_base = K·s^a: the prior normalizer K carried over to
// est, the estimator after the prior's dataset grew to n points, with
// s = (n/N)·(ks/ks'): the per-kernel mass scales with the represented
// size and inversely with the kernel count, while the kernel sum at a
// surviving point is dominated by the old centers, so
// Σ_{prior} f'(x)^a ≈ s^a · Σ_{prior} f(x)^a = K·s^a. The error of this
// approximation is the drift an incremental step contributes. ks', est's
// kernel count, is returned for the successor NormState; a degenerate
// prior state is an error.
func carriedNorm(est DensityEstimator, prior NormState, n int, alpha float64) (float64, int, error) {
	if prior.N <= 0 || prior.Kernels <= 0 || prior.K <= 0 {
		return 0, 0, fmt.Errorf("core: degenerate prior norm state %+v", prior)
	}
	ce, ok := est.(centersEstimator)
	if !ok {
		return 0, 0, errors.New("core: incremental draws require an estimator exposing Centers and N")
	}
	ks := len(ce.Centers())
	if ks == 0 {
		return 0, 0, errors.New("core: estimator has no centers")
	}
	s := (float64(n) / float64(prior.N)) * (float64(prior.Kernels) / float64(ks))
	return prior.K * biasedScale(s, alpha), ks, nil
}

// biasedScale is s^a with the same fast paths biasedWeight uses, so the
// rescaled normalizer composes with per-point weights consistently.
func biasedScale(s, alpha float64) float64 {
	if alpha == 0 {
		return 1
	}
	if alpha == 1 {
		return s
	}
	return math.Pow(s, alpha)
}

// RebuildSchedule decides, for each generation of an appendable dataset,
// whether its sample must be rebuilt exactly or may be extended from the
// prior generation. counts[g] is the cumulative dataset length at
// generation g. Generation 0 is always exact; generation g ≥ 1 is exact
// when extending would push the accumulated drift Σ m_j/n_j past tol (an
// exact rebuild resets the budget). The schedule is a pure function of
// (counts, tol) — every server replica, and a replica restarted mid-
// lineage, derives the same exact/incremental decisions.
//
// With tol ≤ 0 every generation is exact: incremental sampling is opt-in.
func RebuildSchedule(counts []int, tol float64) []bool {
	exact := make([]bool, len(counts))
	if len(counts) == 0 {
		return exact
	}
	exact[0] = true
	drift := 0.0
	for g := 1; g < len(counts); g++ {
		// |delta|, not delta: under window eviction a generation can
		// shrink, and a signed step would go negative — *reducing*
		// accumulated drift and postponing the exact rebuild indefinitely.
		// A shrink perturbs the approximation just like a growth of the
		// same magnitude, so both charge the budget.
		step := math.Abs(float64(counts[g]-counts[g-1])) / float64(counts[g])
		if tol <= 0 || drift+step > tol {
			exact[g] = true
			drift = 0
		} else {
			drift += step
		}
	}
	return exact
}
