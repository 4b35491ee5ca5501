// Package outlier implements distance-based DB(p,k) outlier detection
// (§3.2): an exact kd-tree detector, and the paper's approximate
// algorithm driven by a density estimate — compute the expected number of
// neighbours N'_D(O,k) = ∫_Ball(O,k) f for every point, keep the points
// whose expectation falls below a candidate threshold, and verify only
// those candidates exactly in one more pass.
//
// A point O is a DB(p,k) outlier when at most p other points of the
// dataset lie at distance at most k from O. Following Knorr & Ng, p may
// also be given as a fraction fr of the dataset size (p = fr·|D|). Knorr &
// Ng's nested loop is the tests' oracle (nestedloop_test.go).
package outlier

import (
	"context"
	"errors"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Params are the DB(p,k) parameters. K is the neighbourhood radius
// (Euclidean distance threshold), P the maximum neighbour count an
// outlier may have.
type Params struct {
	K float64
	P int

	// Parallelism bounds the workers used by the detectors: 0 uses
	// runtime.GOMAXPROCS(0), 1 is the serial reference path. It is an
	// execution option only — each detector partitions its work so that
	// the reported outliers are identical for every setting.
	Parallelism int

	// Obs, when non-nil, records spans ("outlier/score",
	// "outlier/verify") and the candidate/pruned/found counters.
	// Recording never influences detection.
	Obs *obs.Recorder

	// Progress, when non-nil, is called from the dataset-scanning
	// detectors with (points scanned so far, total) — at most once per
	// block, from scan workers, so it must be safe for concurrent use.
	// The count restarts at each pass.
	Progress func(done, total int)

	// Ctx, when non-nil, cancels detection: every detector checks it at
	// block (or row-batch) granularity and a done context aborts with
	// parallel.ErrCanceled wrapping the context's error.
	Ctx context.Context
}

// FromFraction converts a fractional neighbour bound into Params
// (p = fr·n), per Definition 1's remark.
func FromFraction(k float64, fr float64, n int) Params {
	return Params{K: k, P: int(fr * float64(n))}
}

func (prm Params) validate() error {
	if prm.K <= 0 {
		return errors.New("outlier: K must be positive")
	}
	if prm.P < 0 {
		return errors.New("outlier: P must be non-negative")
	}
	return nil
}

// collect returns the indices of the set flags in ascending order.
func collect(flags []bool) []int {
	var out []int
	for i, f := range flags {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// Exact finds all DB(p,k) outliers with a kd-tree index: each point's
// neighbour count within K is evaluated with an early-exit range count.
// Returns outlier indices in input order.
func Exact(pts []geom.Point, prm Params) ([]int, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, nil
	}
	tree := kdtree.Build(pts)
	flags := make([]bool, len(pts))
	err := parallel.DoCtxObs(prm.Ctx, len(pts), prm.Parallelism, prm.Obs, func(i int) error {
		// CountWithin includes the query point itself (distance 0), so an
		// outlier has at most P+1 in-range points; the limit lets the
		// search abort as soon as P+2 are seen.
		flags[i] = tree.CountWithin(pts[i], prm.K, prm.P+1) <= prm.P+1
		return nil
	})
	if err != nil {
		return nil, err
	}
	return collect(flags), nil
}

// BallIntegrator supplies the expected in-ball point count under a density
// estimate — N'_D(O,k) of §3.2. *kde.Estimator satisfies it.
type BallIntegrator interface {
	IntegrateBall(o geom.Point, r float64) float64
}

// ApproxOptions tune the approximate detector.
type ApproxOptions struct {
	// CandidateFactor widens the candidate net: points with expected
	// neighbour count N' ≤ CandidateFactor·(P+1) become candidates for
	// exact verification. Larger values trade verification work for
	// recall; the density estimate would have to overestimate an
	// outlier's neighbourhood by more than this factor for the algorithm
	// to miss it. Default 3.
	CandidateFactor float64
}

// Result reports an approximate detection run.
type Result struct {
	// Outliers are the verified outlier points.
	Outliers []geom.Point
	// NumCandidates is the size of the candidate set the density
	// estimate produced (the verification workload).
	NumCandidates int
	// DataPasses consumed by detection: 1 to score all points + 1 to
	// verify candidates (0 when no candidates survive scoring). The
	// estimator-construction pass is not included.
	DataPasses int
}

// Approximate runs the §3.2 algorithm over ds using the density estimate:
// score every point by its expected neighbour count, keep the low-density
// candidates, and verify them exactly against the full dataset in one more
// pass. With a representative estimator the result equals the exact
// outlier set, found in "at most two dataset passes plus the dataset pass
// … to compute the density estimator" (§4.5).
func Approximate(ds dataset.Dataset, est BallIntegrator, prm Params, opts ApproxOptions) (*Result, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if est == nil {
		return nil, errors.New("outlier: nil estimator")
	}
	cf := opts.CandidateFactor
	if cf == 0 {
		cf = 3
	}
	if cf < 1 {
		return nil, errors.New("outlier: CandidateFactor must be ≥ 1")
	}
	threshold := cf * float64(prm.P+1)
	rec := prm.Obs
	scanCfg := dataset.ScanConfig{
		Parallelism: prm.Parallelism,
		Ctx:         prm.Ctx,
		Rec:         rec,
		Progress:    prm.Progress,
	}

	// Pass 1: expected neighbour count per point; collect candidates.
	// Each block gathers its own candidate slice and the slices are
	// concatenated in block order, so the candidate set (and therefore
	// everything downstream) is independent of the worker count.
	n := ds.Len()
	scoreSpan := rec.StartSpan("outlier/score")
	numBlocks := parallel.NumBlocks(n, parallel.BlockSize(0))
	blockCands := make([][]geom.Point, numBlocks)
	err := dataset.ScanBlocksCfg(ds, scanCfg, func(block, start int, pts []geom.Point) error {
		var cands []geom.Point
		for _, p := range pts {
			if est.IntegrateBall(p, prm.K) <= threshold {
				cands = append(cands, p.Clone())
			}
		}
		blockCands[block] = cands
		return nil
	})
	scoreSpan.AddPoints(int64(n))
	scoreSpan.End()
	if err != nil {
		return nil, err
	}
	var candidates []geom.Point
	for _, cands := range blockCands {
		candidates = append(candidates, cands...)
	}
	rec.Counter(obs.CtrOutlierCands).Add(int64(len(candidates)))
	rec.Counter(obs.CtrOutlierPruned).Add(int64(n - len(candidates)))
	res := &Result{NumCandidates: len(candidates), DataPasses: 1}
	if len(candidates) == 0 {
		return res, nil
	}

	// Pass 2: exact verification. A kd-tree over the candidates lets one
	// scan attribute every dataset point to the candidates it neighbours.
	// Blocks count into local arrays merged by integer addition, which is
	// order-independent; each local count is capped at P+2 — enough to
	// preserve the `> P+1` disqualification test on the merged sum while
	// letting hot candidates stop accumulating early.
	verifySpan := rec.StartSpan("outlier/verify")
	tree := kdtree.Build(candidates)
	counts := make([]int, len(candidates))
	var mu sync.Mutex
	err = dataset.ScanBlocksCfg(ds, scanCfg, func(block, start int, pts []geom.Point) error {
		local := make([]int, len(candidates))
		for _, p := range pts {
			for _, ci := range tree.Within(p, prm.K) {
				if local[ci] <= prm.P+1 {
					local[ci]++
				}
			}
		}
		mu.Lock()
		for ci, c := range local {
			if c > 0 {
				counts[ci] += c
			}
		}
		mu.Unlock()
		return nil
	})
	verifySpan.AddPoints(int64(n))
	verifySpan.End()
	if err != nil {
		return nil, err
	}
	res.DataPasses = 2
	for i, c := range candidates {
		// Each candidate sees itself once during the scan, so the true
		// neighbour bound P allows P+1 in-range hits.
		if counts[i] <= prm.P+1 {
			res.Outliers = append(res.Outliers, c)
		}
	}
	rec.Counter(obs.CtrOutlierFound).Add(int64(len(res.Outliers)))
	return res, nil
}

// EstimateCount estimates the number of DB(p,k) outliers in a single pass
// by counting points whose expected neighbour count is at most P+1 —
// the cheap parameter-exploration mode §3.2 advertises ("it can estimate
// the number of DB(p,k)-outliers in a dataset D very efficiently, in one
// dataset pass").
func EstimateCount(ds dataset.Dataset, est BallIntegrator, prm Params) (int, error) {
	if err := prm.validate(); err != nil {
		return 0, err
	}
	if est == nil {
		return 0, errors.New("outlier: nil estimator")
	}
	// Per-block tallies merged by addition: an order-independent integer
	// reduction, so the estimate matches the serial scan exactly.
	blockCounts := make([]int, parallel.NumBlocks(ds.Len(), parallel.BlockSize(0)))
	cfg := dataset.ScanConfig{Parallelism: prm.Parallelism, Ctx: prm.Ctx, Rec: prm.Obs, Progress: prm.Progress}
	err := dataset.ScanBlocksCfg(ds, cfg, func(block, start int, pts []geom.Point) error {
		c := 0
		for _, p := range pts {
			if est.IntegrateBall(p, prm.K) <= float64(prm.P+1) {
				c++
			}
		}
		blockCounts[block] = c
		return nil
	})
	if err != nil {
		return 0, err
	}
	count := 0
	for _, c := range blockCounts {
		count += c
	}
	return count, nil
}
