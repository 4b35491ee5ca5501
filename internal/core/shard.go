// Sharded draw primitives.
//
// The exact sampler's two dataset passes decompose by scan block: the
// normalizer k_a = Σ f'(x_i) is a plain sum whose per-block partials merge
// exactly when added back in block order, and the coin-flip pass already
// gives every block an independent RNG stream derived from (base, block
// index) alone. NormPartials and DrawBlocks expose exactly those per-block
// computations so a coordinator (internal/shard) can scatter blocks across
// workers and gather a sample that is bit-for-bit identical to Draw's —
// the single-node determinism guarantee, extended one level up.
//
// Both entry points deliberately share code with Draw (evalDensities,
// biasedWeight, flipCoins, fillBlockSample) rather than reimplementing the
// loops: parity is enforced structurally, not by keeping two copies in
// sync.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// BlockSample is one block's contribution to a sharded draw: the selected
// weighted points of global block Block in index order, plus the block's
// count of probabilities clipped at 1. Concatenating the BlockSamples of
// blocks 0..NumBlocks-1 in block order reproduces Draw's Points, and
// summing Saturated reproduces Draw's Saturated.
type BlockSample struct {
	Block     int
	Points    []dataset.WeightedPoint
	Saturated int
}

// DrawStreamBase consumes one draw of rng — exactly the draw
// stats.RNG.SplitsValues makes inside Draw — and returns it as the base
// every per-block coin stream derives from: block i's stream is
// stats.StreamAt(base, i). A coordinator calls this where it would have
// called Draw, ships the base to its workers, and rng is left in the same
// state either way.
func DrawStreamBase(rng *stats.RNG) uint64 { return rng.Uint64() }

// validateShardOpts checks the option combinations the sharded path
// supports. OnePass is meaningless here: its single pass is not blocked
// against an exact normalizer.
func validateShardOpts(opts Options) error {
	if opts.OnePass {
		return errors.New("core: sharded draw does not support OnePass")
	}
	if opts.FloorDensity < 0 {
		return errors.New("core: negative FloorDensity")
	}
	return nil
}

// blockPoints returns the row view of points [start, end). Sliceable
// datasets (every memory-resident or mapped dataset in this repository,
// including generation-pinned views) hand back a subslice of their stable
// snapshot; RangeScanner datasets decode the range into fresh storage.
func blockPoints(ds dataset.Dataset, start, end int) ([]geom.Point, error) {
	if sl, ok := ds.(dataset.Sliceable); ok {
		if pts := sl.Points(); len(pts) >= end {
			return pts[start:end], nil
		}
	}
	rs, ok := ds.(dataset.RangeScanner)
	if !ok {
		return nil, fmt.Errorf("core: sharded draw requires a Sliceable or RangeScanner dataset, got %T", ds)
	}
	buf := make([]geom.Point, 0, end-start)
	if err := rs.ScanRange(start, end, func(p geom.Point) error {
		buf = append(buf, p.Clone())
		return nil
	}); err != nil {
		return nil, err
	}
	if len(buf) != end-start {
		return nil, fmt.Errorf("core: range scan of [%d,%d) delivered %d points", start, end, len(buf))
	}
	return buf, nil
}

// checkBlocks validates the assigned global block indices against the
// dataset's block count.
func checkBlocks(blocks []int, numBlocks int) error {
	for _, b := range blocks {
		if b < 0 || b >= numBlocks {
			return fmt.Errorf("core: block index %d out of range [0,%d)", b, numBlocks)
		}
	}
	return nil
}

// NormPartials computes the per-block partial normalizer sums
// k_a(block) = Σ_{x ∈ block} max(f(x), floor)^a for the given global block
// indices, returning them parallel to blocks. Each partial accumulates its
// block's points in index order, so a caller that places the partials of
// all blocks into global block order and sums sequentially reproduces
// ExactNorm bit-for-bit (the float additions happen in the same order).
// Block boundaries come from (ds.Len(), opts.BlockSize) exactly as in Draw;
// when opts.FloorDensity is zero the floor defaults from the estimator, so
// identical estimators yield identical floors on every shard.
func NormPartials(ds dataset.Dataset, est DensityEstimator, opts Options, blocks []int) ([]float64, error) {
	if est == nil {
		return nil, errors.New("core: nil density estimator")
	}
	if err := validateShardOpts(opts); err != nil {
		return nil, err
	}
	n := ds.Len()
	if n == 0 {
		return nil, errors.New("core: empty dataset")
	}
	blockSize := parallel.BlockSize(opts.BlockSize)
	numBlocks := parallel.NumBlocks(n, blockSize)
	if err := checkBlocks(blocks, numBlocks); err != nil {
		return nil, err
	}
	floor := opts.FloorDensity
	if floor == 0 {
		floor = defaultFloor(est)
	}
	rec := opts.Obs
	span := rec.StartSpan("norm_partials")
	defer span.End()
	out := make([]float64, len(blocks))
	err := parallel.DoCtxObs(opts.Ctx, len(blocks), opts.Parallelism, rec, func(j int) error {
		start, end := parallel.BlockRange(blocks[j], n, blockSize)
		pts, err := blockPoints(ds, start, end)
		if err != nil {
			return err
		}
		sc := getCoinScratch(len(pts))
		defer coinScratchPool.Put(sc)
		evalDensities(est, pts, sc.dens)
		var k float64
		for _, f := range sc.dens {
			k += biasedWeight(f, opts.Alpha, floor)
		}
		out[j] = k
		span.AddPoints(int64(len(pts)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DrawBlocks runs Draw's coin-flip pass over the given global blocks
// against an externally supplied global normalizer and stream base. Block
// i's coins come from stats.StreamAt(base, i) — the stream Draw would have
// assigned it — and the selection loop is Draw's own (flipCoins), so for
// the norm and base a single-node Draw would use, the returned selections
// are bit-identical to the corresponding slice of that Draw's sample.
// Results are ordered like blocks; weights are 1/P(included) as in Draw.
func DrawBlocks(ds dataset.Dataset, est DensityEstimator, opts Options, norm float64, base uint64, blocks []int) ([]BlockSample, error) {
	if est == nil {
		return nil, errors.New("core: nil density estimator")
	}
	if opts.TargetSize <= 0 {
		return nil, errors.New("core: TargetSize must be positive")
	}
	if err := validateShardOpts(opts); err != nil {
		return nil, err
	}
	if norm <= 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
		return nil, fmt.Errorf("core: degenerate normalizer k_a = %v", norm)
	}
	n := ds.Len()
	if n == 0 {
		return nil, errors.New("core: empty dataset")
	}
	blockSize := parallel.BlockSize(opts.BlockSize)
	numBlocks := parallel.NumBlocks(n, blockSize)
	if err := checkBlocks(blocks, numBlocks); err != nil {
		return nil, err
	}
	floor := opts.FloorDensity
	if floor == 0 {
		floor = defaultFloor(est)
	}
	rec := opts.Obs
	span := rec.StartSpan("draw_blocks")
	defer span.End()
	cCoins := rec.Counter(obs.CtrCoinFlips)
	cSat := rec.Counter(obs.CtrSaturated)
	arena := &sampleArena{dims: ds.Dims()}
	b := float64(opts.TargetSize)
	out := make([]BlockSample, len(blocks))
	err := parallel.DoCtxObs(opts.Ctx, len(blocks), opts.Parallelism, rec, func(j int) error {
		start, end := parallel.BlockRange(blocks[j], n, blockSize)
		pts, err := blockPoints(ds, start, end)
		if err != nil {
			return err
		}
		sc := getCoinScratch(len(pts))
		defer coinScratchPool.Put(sc)
		evalDensities(est, pts, sc.dens)
		for i, f := range sc.dens {
			sc.dens[i] = biasedWeight(f, opts.Alpha, floor)
		}
		brng := stats.StreamAt(base, blocks[j])
		count, sat := flipCoins(sc.dens, b, norm, &brng, sc)
		// Indices are dropped here: they never cross the shard wire, and
		// the coordinator's merged sample carries Indices == nil.
		wps, _ := fillBlockSample(arena, pts, sc, count, start)
		out[j] = BlockSample{
			Block:     blocks[j],
			Points:    wps,
			Saturated: sat,
		}
		cCoins.Add(int64(len(pts)))
		cSat.Add(int64(sat))
		span.AddPoints(int64(len(pts)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range out {
		total += len(out[i].Points)
	}
	rec.Counter(obs.CtrSampled).Add(int64(total))
	return out, nil
}
