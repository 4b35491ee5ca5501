// The block engine: Fig. 1's two passes, written once.
//
// Every sampler in this package is a thin caller of one engine with two
// steps over the same scan blocks:
//
//   - weigh evaluates f'(x) = max(f(x), floor)^a for each visited block
//     and returns the block's partial sum, accumulated in index order. It
//     can keep the weights at their dataset offsets for the second step.
//   - flip flips each visited block's inclusion coins against a given
//     normalizer, block b drawing from stats.StreamAt(base, off+b), and
//     returns each block's selections, carved from one arena.
//
// A visit is either one counted full pass over the dataset
// (dataset.ScanBlocksCfg, which brings the data pass, the scan span, the
// points-scanned counter and progress) or a listed set of global blocks,
// as a shard worker serves them. Draw, ExactNorm, ExtendDraw, NormPartials,
// ProposeBlocks and DrawBlocks all run on it, so the single-node and the
// sharded sample share every step the cross-mode byte-identity argument
// rests on: one weight expression, one block-order fold (FoldNorm), one
// coin rule and one stream derivation (DESIGN.md §5h).
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// engine runs the two steps over one dataset for one set of options.
type engine struct {
	ds    dataset.Dataset
	est   DensityEstimator
	opts  Options
	floor float64
	// points is how many points one visit covers.
	points int
	// listed makes each step visit only blocks (global indices) instead
	// of making a counted full pass; an empty or nil list visits nothing.
	listed bool
	blocks []int
	// kept holds the weights a keeping weigh stored at their dataset
	// offsets; flip reuses them instead of re-weighing. It is carved from
	// keptBuf, taken from keptPool and handed back by release.
	kept    []float64
	keptBuf *[]float64
}

// keptPool recycles the kept weight caches: n float64s per exact
// in-memory draw, the largest allocation a miss would otherwise make.
var keptPool = sync.Pool{New: func() interface{} { return new([]float64) }}

var errNilEstimator = errors.New("core: nil density estimator")

// newEngine checks what every sampler shares — a non-nil estimator and a
// non-negative FloorDensity — and resolves a zero floor from the
// estimator, so identical estimators yield identical floors on every
// shard. At a = 0 no weight depends on the floor (biasedWeight), so none
// is resolved. Each step of the returned engine is one counted full pass.
func newEngine(ds dataset.Dataset, est DensityEstimator, opts Options) (*engine, error) {
	if est == nil {
		return nil, errNilEstimator
	}
	floor := opts.FloorDensity
	if floor < 0 {
		return nil, errors.New("core: negative FloorDensity")
	}
	if floor == 0 && opts.Alpha != 0 {
		floor = defaultFloor(est)
	}
	return &engine{ds: ds, est: est, opts: opts, floor: floor, points: ds.Len()}, nil
}

// list restricts the engine's steps to the given global blocks, laid out
// over the whole dataset as Draw lays them out. OnePass is refused: its
// single pass is not blocked against an exact normalizer.
func (e *engine) list(blocks []int) error {
	if e.opts.OnePass {
		return errors.New("core: sharded draw does not support OnePass")
	}
	n := e.ds.Len()
	numBlocks := parallel.NumBlocks(n, e.opts.BlockSize)
	e.points = 0
	for _, b := range blocks {
		if b < 0 || b >= numBlocks {
			return fmt.Errorf("core: block index %d out of range [0,%d)", b, numBlocks)
		}
		start, end := parallel.BlockRange(b, n, e.opts.BlockSize)
		e.points += end - start
	}
	e.listed, e.blocks = true, blocks
	return nil
}

// slots is the number of per-block results a step returns.
func (e *engine) slots() int {
	if e.listed {
		return len(e.blocks)
	}
	return parallel.NumBlocks(e.ds.Len(), e.opts.BlockSize)
}

// visit calls fn for every block of the engine's visit on the options'
// worker budget. slot is where the block's result goes: the block index
// on a full pass, its position in the list otherwise. start is the
// block's offset in ds.
func (e *engine) visit(fn func(slot, block, start int, pts []geom.Point) error) error {
	if !e.listed {
		return dataset.ScanBlocksCfg(e.ds, dataset.ScanConfig{
			BlockSize:   e.opts.BlockSize,
			Parallelism: e.opts.Parallelism,
			Ctx:         e.opts.Ctx,
			Rec:         e.opts.Obs,
			Progress:    e.opts.Progress,
		}, func(block, start int, pts []geom.Point) error {
			return fn(block, block, start, pts)
		})
	}
	n := e.ds.Len()
	return parallel.DoCtxObs(e.opts.Ctx, len(e.blocks), e.opts.Parallelism, e.opts.Obs, func(j int) error {
		start, end := parallel.BlockRange(e.blocks[j], n, e.opts.BlockSize)
		pts, err := blockPoints(e.ds, start, end)
		if err != nil {
			return err
		}
		return fn(j, e.blocks[j], start, pts)
	})
}

// weighBlock fills w with the biased weights of pts and returns their sum
// in index order. It is the only place a density becomes a weight. At
// a = 0 every weight is 1 whatever f is (biasedWeight), so the uniform
// rung evaluates no density; the sum of len(w) ones is exact.
func (e *engine) weighBlock(pts []geom.Point, w []float64) float64 {
	if e.opts.Alpha == 0 {
		for i := range w {
			w[i] = 1
		}
		return float64(len(w))
	}
	evalDensities(e.est, pts, w)
	var k float64
	for i, f := range w {
		w[i] = biasedWeight(f, e.opts.Alpha, e.floor)
		k += w[i]
	}
	return k
}

// weigh is the normalization pass: each visited block's partial
// k_a = Σ f'(x), by slot. With keep, a memory-resident dataset (anything
// Sliceable whose snapshot covers the scan, including generation-pinned
// views and mapped segment files) also keeps the weights — 8 bytes per
// point, negligible next to the resident points — so flip skips the
// densities and the power, the dominant cost of the exact algorithm. A
// weight is a pure function of its point, so kept and recomputed weights
// are bit-identical; streaming datasets keep the constant-memory
// recomputation. Blocks write disjoint ranges of kept, so it needs no
// lock. The cache comes from keptPool; the caller hands it back with
// release once flip has returned.
func (e *engine) weigh(keep bool) ([]float64, error) {
	if sl, ok := e.ds.(dataset.Sliceable); keep && ok && len(sl.Points()) >= e.ds.Len() {
		n := e.ds.Len()
		e.keptBuf = keptPool.Get().(*[]float64)
		if cap(*e.keptBuf) < n {
			*e.keptBuf = make([]float64, n)
		}
		e.kept = (*e.keptBuf)[:n]
	}
	partials := make([]float64, e.slots())
	err := e.visit(func(slot, _, start int, pts []geom.Point) error {
		var w []float64
		if e.kept != nil {
			w = e.kept[start : start+len(pts)]
		} else {
			sc := getCoinScratch(len(pts))
			defer coinScratchPool.Put(sc)
			w = sc.dens
		}
		partials[slot] = e.weighBlock(pts, w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return partials, nil
}

// release returns the kept weight cache to keptPool. Both visits wait for
// every worker before returning (dataset.ScanBlocksCfg, parallel.DoCtxObs),
// so once weigh and flip have returned — cancelled or not — nothing
// touches the cache any more.
func (e *engine) release() {
	if e.keptBuf != nil {
		keptPool.Put(e.keptBuf)
		e.kept, e.keptBuf = nil, nil
	}
}

// exactNorm is weigh plus the block-order fold: the exact k_a of the
// visited points, bit-for-bit identical at every parallelism.
func (e *engine) exactNorm(keep bool) (float64, error) {
	partials, err := e.weigh(keep)
	if err != nil {
		return 0, err
	}
	return FoldNorm(partials), nil
}

// flip is the coin-flip pass: every visited point is kept with
// probability min(1, b·f'(x)/norm), block b's coins coming from
// stats.StreamAt(base, off+b), and its weight is 1/P(included). Each
// block's selections are returned by slot, in index order.
func (e *engine) flip(norm float64, base uint64, off int) ([]BlockSample, error) {
	rec := e.opts.Obs
	cCoins := rec.Counter(obs.CtrCoinFlips)
	cSat := rec.Counter(obs.CtrSaturated)
	cSampled := rec.Counter(obs.CtrSampled)
	arena := &sampleArena{dims: e.ds.Dims()}
	b := float64(e.opts.TargetSize)
	out := make([]BlockSample, e.slots())
	err := e.visit(func(slot, block, start int, pts []geom.Point) error {
		// The fused pass: kept (or freshly weighed) weights, coin flips
		// recording (index, prob) pairs in pooled scratch, then exactly
		// sized storage for the selections carved from the shared arena —
		// no per-point Clone, no per-block allocation.
		sc := getCoinScratch(len(pts))
		defer coinScratchPool.Put(sc)
		w := sc.dens
		if e.kept != nil {
			w = e.kept[start : start+len(pts)]
		} else {
			e.weighBlock(pts, w)
		}
		brng := stats.StreamAt(base, off+block)
		count, sat := flipCoins(w, b, norm, &brng, sc)
		out[slot] = BlockSample{Block: block, Points: fillBlockSample(arena, pts, sc, count), Saturated: sat}
		cCoins.Add(int64(len(pts)))
		cSat.Add(int64(sat))
		cSampled.Add(int64(count))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gather appends the per-block selections to s in slot order, which is
// block order for every caller, and sums their saturation counts.
func (s *Sample) gather(blocks []BlockSample) {
	total := len(s.Points)
	for i := range blocks {
		total += len(blocks[i].Points)
	}
	s.Points = append(make([]dataset.WeightedPoint, 0, total), s.Points...)
	for i := range blocks {
		s.Points = append(s.Points, blocks[i].Points...)
		s.Saturated += blocks[i].Saturated
	}
}

// FoldNorm sums per-block partial normalizers laid out in global block
// order, left to right. It is the one way partials become k_a: the
// engine's exact pass folds its own, a shard worker folds its own blocks'
// into ProposeBlocks's lower bound, and the shard coordinator folds the
// ProposeBlocks partials gathered from every worker, so the merged
// normalizer equals the single-node one to the last bit. Floating-point addition is
// not associative; the order is the contract.
func FoldNorm(partials []float64) float64 {
	var k float64
	for _, p := range partials {
		k += p
	}
	return k
}

// checkNorm rejects a normalizer no coin can be flipped against.
func checkNorm(k float64) error {
	if k <= 0 || math.IsInf(k, 0) || math.IsNaN(k) {
		return fmt.Errorf("core: degenerate normalizer k_a = %v", k)
	}
	return nil
}
