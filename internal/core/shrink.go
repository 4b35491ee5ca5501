// Sliding-window eviction for incremental samples — the inverse of
// ExtendDraw's delta math.
//
// ExtendDraw grows a sample's coverage by adding the delta's normalizer
// contribution: k_a' = k_base + D. ShrinkDraw removes an evicted prefix by
// subtracting it:
//
//	k_a' = k_base − D_evict,  k_base = K·s^a,  D_evict = Σ_{x ∈ evicted} f'(x)^a
//
// where K is the prior normalizer, f' is the post-eviction estimator, and
// s rescales prior densities to it (the estimator's NormRescale when
// implemented, the KDE default otherwise). The evicted sample points are
// identified by index — Sample.Indices, maintained by Draw and ExtendDraw —
// so eviction costs one pass over the evicted rows and no pass over the
// survivors.
//
// Survivors keep their weights unchanged and flip no new coins: each was
// included with its realized probability p, so its inverse-probability
// weight 1/p remains unbiased for every window statistic. What shrinks is
// the expected sample size — survivors of the window carry
// E[|S|] ≈ b·(k_a' /k_base) ≤ b — a deficit tracked as drift exactly like
// ExtendDraw's rescaling error, and repaired by the next exact rebuild
// (RebuildSchedule, which charges |delta| for shrinks too). Consuming no
// randomness keeps replicas trivially in lockstep: a shrink is a pure
// function of (prior sample, evicted rows, estimator).
package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// ShrinkOptions configure one eviction step. The embedded Options are
// interpreted as for Draw (Alpha, FloorDensity, Parallelism, BlockSize,
// Obs, Progress, Ctx apply to the single pass over the evicted
// rows); TargetSize and OnePass are ignored — a shrink draws nothing.
type ShrinkOptions struct {
	Options

	// EvictCount m is how many points leave the front of the prior
	// sample's coverage: the prior covers dataset indices [0, PriorNorm.N)
	// and the surviving window is [m, PriorNorm.N). The evicted dataset
	// passed to ShrinkDraw must hold exactly those m rows.
	EvictCount int

	// Prior is the sample being shrunk. It must carry Indices (Draw and
	// ExtendDraw fill them; deserialized or shard-merged samples do not
	// and cannot be shrunk without an exact rebuild). It is not mutated.
	Prior *Sample

	// PriorNorm is the NormState returned alongside Prior.
	PriorNorm NormState
}

// ShrinkDraw shrinks a prior sample of [0, PriorNorm.N) to a sample of the
// surviving window [EvictCount, PriorNorm.N), spending one pass over the
// evicted rows only. est must be the post-eviction estimator (the
// estimator after the evicted generation's mass is removed) and must
// expose Centers and N.
//
// The returned sample's Indices are window-relative: each survivor's index
// shifts down by EvictCount, so the result composes with a later
// ExtendDraw or ShrinkDraw over the window view. DataPasses reports the
// one eviction pass; Saturated carries the prior's count unchanged (no
// coin is re-examined).
func ShrinkDraw(evicted dataset.Dataset, est DensityEstimator, opts ShrinkOptions) (*Sample, NormState, error) {
	var zero NormState
	if opts.Prior == nil {
		return nil, zero, errors.New("core: ShrinkDraw requires a prior sample")
	}
	if opts.Prior.Indices == nil {
		return nil, zero, errors.New("core: ShrinkDraw requires a prior sample with Indices (drawn locally, not decoded or shard-merged)")
	}
	if len(opts.Prior.Indices) != len(opts.Prior.Points) {
		return nil, zero, fmt.Errorf("core: prior has %d indices for %d points", len(opts.Prior.Indices), len(opts.Prior.Points))
	}
	prior := opts.PriorNorm
	m := opts.EvictCount
	if m <= 0 {
		return nil, zero, fmt.Errorf("core: EvictCount %d, want positive", m)
	}
	n := prior.N - m
	if n <= 0 {
		return nil, zero, fmt.Errorf("core: evicting %d of %d points leaves no window", m, prior.N)
	}
	if evicted.Len() != m {
		return nil, zero, fmt.Errorf("core: evicted view holds %d rows, EvictCount is %d", evicted.Len(), m)
	}
	e, err := newEngine(evicted, est, opts.Options)
	if err != nil {
		return nil, zero, err
	}
	kbase, ks, err := carriedNorm(est, prior, n, opts.Alpha)
	if err != nil {
		return nil, zero, err
	}

	rec := opts.Obs
	span := rec.StartSpan("shrink_draw")
	defer span.End()

	// The one pass: D_evict = Σ_{evicted} f'(x)^a under the post-eviction
	// estimator.
	nspan := rec.StartSpan("shrink_draw/normalize")
	d, err := e.exactNorm(false)
	nspan.AddPoints(int64(m))
	nspan.End()
	if err != nil {
		return nil, zero, err
	}

	kNew := kbase - d
	if err := checkNorm(kNew); err != nil {
		return nil, zero, fmt.Errorf("%w (k_base %v − D_evict %v)", err, kbase, d)
	}

	// Keep exactly the survivors: sample points whose index falls inside
	// the window, re-addressed to window-relative coordinates. Points are
	// in index order, and the eviction is a prefix, so the survivors are a
	// suffix of the prior sample.
	cut := 0
	for cut < len(opts.Prior.Indices) && opts.Prior.Indices[cut] < int64(m) {
		cut++
	}
	survivors := opts.Prior.Points[cut:]
	out := &Sample{
		Norm:       kNew,
		DataPasses: 1,
		Saturated:  opts.Prior.Saturated,
		Points:     make([]dataset.WeightedPoint, len(survivors)),
		Indices:    make([]int64, len(survivors)),
	}
	copy(out.Points, survivors)
	for i, idx := range opts.Prior.Indices[cut:] {
		if idx >= int64(prior.N) {
			return nil, zero, fmt.Errorf("core: prior sample index %d beyond its coverage %d", idx, prior.N)
		}
		out.Indices[i] = idx - int64(m)
	}

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
