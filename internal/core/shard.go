// Sharded draw primitives.
//
// The exact sampler's two dataset passes decompose by scan block: the
// normalizer k_a = Σ f'(x_i) is a plain sum whose per-block partials merge
// exactly when folded back in block order (FoldNorm), and the coin-flip
// pass already gives every block an independent RNG stream derived from
// (base, block index) alone. NormPartials and DrawBlocks expose exactly
// those per-block computations so a coordinator (internal/shard) can
// scatter blocks across workers and gather a sample that is bit-for-bit
// identical to Draw's — the single-node determinism guarantee, extended
// one level up.
//
// Both are the block engine's two steps over a listed visit (engine.go),
// the same steps Draw runs over a full pass: parity is enforced
// structurally, not by keeping two copies in sync.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

// BlockSample is one block's contribution to a draw: the selected
// weighted points of global block Block in index order and the block's
// count of probabilities clipped at 1. Concatenating the BlockSamples of
// blocks 0..NumBlocks-1 in block order reproduces Draw's Points, and
// summing Saturated reproduces Draw's Saturated.
type BlockSample struct {
	Block     int
	Points    []dataset.WeightedPoint
	Saturated int
}

// DrawStreamBase consumes one draw of rng — exactly the draw Draw makes —
// and returns it as the base every per-block coin stream derives from:
// block i's stream is stats.StreamAt(base, i). A coordinator calls this
// where it would have called Draw, ships the base to its workers, and rng
// is left in the same state either way.
func DrawStreamBase(rng *stats.RNG) uint64 { return rng.Uint64() }

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

// NormPartials computes the per-block partial normalizer sums
// k_a(block) = Σ_{x ∈ block} max(f(x), floor)^a for the given global block
// indices, returning them parallel to blocks. Each partial accumulates its
// block's points in index order, so a caller that places the partials of
// all blocks into global block order and folds them with FoldNorm
// reproduces ExactNorm bit-for-bit (the float additions happen in the
// same order). Block boundaries come from (ds.Len(), opts.BlockSize)
// exactly as in Draw; when opts.FloorDensity is zero the floor defaults
// from the estimator, so identical estimators yield identical floors on
// every shard.
func NormPartials(ds dataset.Dataset, est DensityEstimator, opts Options, blocks []int) ([]float64, error) {
	e, err := newEngine(ds, est, opts)
	if err == nil {
		err = e.list(blocks)
	}
	if err != nil {
		return nil, err
	}
	span := opts.Obs.StartSpan("norm_partials")
	defer span.End()
	span.AddPoints(int64(e.points))
	return e.weigh(false)
}

// DrawBlocks runs Draw's coin-flip pass over the given global blocks
// against an externally supplied global normalizer and stream base. Block
// i's coins come from stats.StreamAt(base, i) — the stream Draw would have
// assigned it — through the engine's one coin loop, so for the norm and
// base a single-node Draw would use, the returned selections are
// bit-identical to the corresponding slice of that Draw's sample. Results
// are ordered like blocks; weights are 1/P(included) as in Draw.
func DrawBlocks(ds dataset.Dataset, est DensityEstimator, opts Options, norm float64, base uint64, blocks []int) ([]BlockSample, error) {
	if opts.TargetSize <= 0 {
		return nil, errors.New("core: TargetSize must be positive")
	}
	if err := checkNorm(norm); err != nil {
		return nil, err
	}
	e, err := newEngine(ds, est, opts)
	if err == nil {
		err = e.list(blocks)
	}
	if err != nil {
		return nil, err
	}
	span := opts.Obs.StartSpan("draw_blocks")
	defer span.End()
	span.AddPoints(int64(e.points))
	return e.flip(norm, base, 0)
}
