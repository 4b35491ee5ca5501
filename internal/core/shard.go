// Sharded draw primitives.
//
// The exact sampler's two dataset passes decompose by scan block: the
// normalizer k_a = Σ f'(x_i) is a plain sum whose per-block partials merge
// exactly when folded back in block order (FoldNorm), and the coin-flip
// pass already gives every block an independent RNG stream derived from
// (base, block index) alone, one variate per point. ProposeBlocks and
// ResolveBlocks split those per-block computations so a coordinator
// (internal/shard) can scatter blocks across workers and gather, in one
// round of worker calls, a sample that is bit-for-bit identical to
// Draw's — the single-node determinism guarantee, extended one level up.
// A worker weighs its blocks once and ships each block's partial and a
// superset of its selections; the coordinator keeps the selections
// against the merged k_a (DESIGN.md §5h).
//
// NormPartials and DrawBlocks are the block engine's two steps over a
// listed visit (engine.go), the same steps Draw runs over a full pass. No
// serving path calls them: the benchmark's replay times them and checks
// each sharded response against DrawBlocks.
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

// NormPartials computes the per-block partial normalizer sums
// k_a(block) = Σ_{x ∈ block} max(f(x), floor)^a for the given global block
// indices, returning them parallel to blocks. Each partial accumulates its
// block's points in index order, so a caller that places the partials of
// all blocks into global block order and folds them with FoldNorm
// reproduces ExactNorm bit-for-bit (the float additions happen in the
// same order). Block boundaries come from (ds.Len(), opts.BlockSize)
// exactly as in Draw; when opts.FloorDensity is zero the floor defaults
// from the estimator, so identical estimators yield identical floors on
// every shard. Only the benchmark's replay calls it.
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
// are ordered like blocks; weights are 1/P(included) as in Draw. Only the
// benchmark's replay calls it, to check a sharded response.
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

// BlockCandidates is one block's part of a one-round sharded draw
// (ProposeBlocks): the block's partial k_a and its candidates — the
// global dataset index, the weight and the coin's uniform variate u of
// every point whose coin could come up heads against the merged
// normalizer — in increasing index order.
type BlockCandidates struct {
	Block   int
	Partial float64
	Index   []int
	W, U    []float64
}

// proposePool recycles the weights ProposeBlocks keeps between its two
// steps, one float64 per listed point. It is not keptPool: a worker's
// buffer covers only its own blocks, and a short buffer handed back to
// keptPool would make the next in-memory Draw allocate its n-float cache
// afresh.
var proposePool = sync.Pool{New: func() interface{} { return new([]float64) }}

// ProposeBlocks is the worker step of a one-round sharded draw over the
// given global blocks, which must be strictly increasing. It weighs each
// block once (the span norm_partials), keeping the weights, and folds its
// own partials with FoldNorm into L. Weights are non-negative and
// rounding is monotone, so each step of that sub-fold is at most the same
// step of the fold over every block of the dataset: L ≤ k_a as floats,
// with no margin, and therefore b·w/L ≥ b·w/k_a for every weight w. It
// then walks block i's coin stream stats.StreamAt(base, i), drawing one
// Float64 u per point as flipCoins does, and keeps (index, w, u) wherever
// u < b·w/L: a superset of the points the exact draw selects, every point
// whose probability clips at 1 among them. Results are ordered like
// blocks.
func ProposeBlocks(ds dataset.Dataset, est DensityEstimator, opts Options, base uint64, blocks []int) ([]BlockCandidates, error) {
	if opts.TargetSize <= 0 {
		return nil, errors.New("core: TargetSize must be positive")
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i] <= blocks[i-1] {
			return nil, fmt.Errorf("core: blocks not strictly increasing at %d", i)
		}
	}
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

	n := ds.Len()
	offs := make([]int, len(blocks)+1)
	for j, b := range blocks {
		start, end := parallel.BlockRange(b, n, opts.BlockSize)
		offs[j+1] = offs[j] + end - start
	}
	buf := proposePool.Get().(*[]float64)
	defer proposePool.Put(buf)
	if cap(*buf) < e.points {
		*buf = make([]float64, e.points)
	}
	kept := (*buf)[:e.points]

	out := make([]BlockCandidates, len(blocks))
	partials := make([]float64, len(blocks))
	err = e.visit(func(slot, block, start int, pts []geom.Point) error {
		w := kept[offs[slot]:offs[slot+1]]
		partials[slot] = e.weighBlock(start, pts, w)
		out[slot] = BlockCandidates{Block: block, Partial: partials[slot]}
		return nil
	})
	if err != nil {
		return nil, err
	}
	lower := FoldNorm(partials)
	b := float64(opts.TargetSize)
	err = parallel.DoCtxObs(opts.Ctx, len(out), opts.Parallelism, opts.Obs, func(j int) error {
		c := &out[j]
		w := kept[offs[j]:offs[j+1]]
		start, _ := parallel.BlockRange(c.Block, n, opts.BlockSize)
		// The scratch records each candidate's offset and its u.
		sc := getCoinScratch(len(w))
		defer coinScratchPool.Put(sc)
		brng := stats.StreamAt(base, c.Block)
		count := 0
		for i, x := range w {
			if u := brng.Float64(); u < b*x/lower {
				sc.idx[count] = int32(i)
				sc.probs[count] = u
				count++
			}
		}
		c.Index, c.W, c.U = make([]int, count), make([]float64, count), make([]float64, count)
		for k, i := range sc.idx[:count] {
			c.Index[k], c.W[k], c.U[k] = start+int(i), w[i], sc.probs[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Check is the rule a block's candidates must meet before ResolveBlocks
// uses them, n and blockSize laying the blocks out as Draw does: an
// in-range block, a partial that is neither negative nor NaN (L ≤ k_a
// rests on it), parallel arrays, strictly increasing indices inside the
// block, every u in [0, 1) and every w finite and not negative, as a
// weight f'(x) is. The shard coordinator applies it to every reply, so a
// malformed one fails its attempt, and another replica serves the
// group, instead of merging.
func (c *BlockCandidates) Check(n, blockSize int) error {
	if numBlocks := parallel.NumBlocks(n, blockSize); c.Block < 0 || c.Block >= numBlocks {
		return fmt.Errorf("block index %d out of range [0,%d)", c.Block, numBlocks)
	}
	if !(c.Partial >= 0) {
		return fmt.Errorf("block %d: partial %v is negative or NaN", c.Block, c.Partial)
	}
	if len(c.W) != len(c.Index) || len(c.U) != len(c.Index) {
		return fmt.Errorf("block %d: %d indices, %d weights, %d variates", c.Block, len(c.Index), len(c.W), len(c.U))
	}
	start, end := parallel.BlockRange(c.Block, n, blockSize)
	prev := start - 1
	for k, i := range c.Index {
		if i <= prev || i >= end {
			return fmt.Errorf("block %d: index %d not increasing inside [%d,%d)", c.Block, i, start, end)
		}
		prev = i
		if u := c.U[k]; !(u >= 0 && u < 1) {
			return fmt.Errorf("block %d: variate %v outside [0,1)", c.Block, u)
		}
		if w := c.W[k]; math.IsInf(w, 0) || !(w >= 0) {
			return fmt.Errorf("block %d: weight %v not finite and non-negative", c.Block, w)
		}
	}
	return nil
}

// ResolveBlocks is the coordinator step of a one-round sharded draw over
// cands, every block's candidates (each meeting Check), given the merged
// normalizer norm, the FoldNorm of their partials. It decides every block
// by flipCoins's rule on the u each worker drew from the block's stream:
// a candidate is kept when u < coinProb(w), with weight 1/prob and its
// row copied from ds, and each probability that clips at 1 counts into
// Saturated. A point outside the candidates has u ≥ b·w/L ≥ b·w/norm, so
// it neither clips nor is kept. The selections are gathered in the order
// of cands, as Draw gathers its blocks, into a Sample with Norm norm and
// the exact algorithm's 2 DataPasses; with cands in global block order it
// is Draw's sample. Coins, saturations and selections are counted into
// opts.Obs as flip counts them.
func ResolveBlocks(ds dataset.Dataset, opts Options, norm float64, cands []BlockCandidates) (*Sample, error) {
	if opts.TargetSize <= 0 {
		return nil, errors.New("core: TargetSize must be positive")
	}
	if err := checkNorm(norm); err != nil {
		return nil, err
	}
	n := ds.Len()
	for i := range cands {
		if err := cands[i].Check(n, opts.BlockSize); err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
	}
	rec := opts.Obs
	cCoins := rec.Counter(obs.CtrCoinFlips)
	cSat := rec.Counter(obs.CtrSaturated)
	cSampled := rec.Counter(obs.CtrSampled)
	arena := &sampleArena{dims: ds.Dims()}
	b := float64(opts.TargetSize)
	out := make([]BlockSample, len(cands))
	for i := range cands {
		c := &cands[i]
		start, end := parallel.BlockRange(c.Block, n, opts.BlockSize)
		sc := getCoinScratch(len(c.Index))
		count, sat := 0, 0
		for k, idx := range c.Index {
			prob, clipped := coinProb(c.W[k], b, norm)
			if clipped {
				sat++
			}
			if c.U[k] < prob {
				sc.idx[count] = int32(idx - start)
				sc.probs[count] = prob
				count++
			}
		}
		var sel []dataset.WeightedPoint
		if count > 0 {
			if err := dataset.ReadRows(ds, start, end, func(pts []geom.Point) error {
				sel = fillBlockSample(arena, pts, sc, count)
				return nil
			}); err != nil {
				coinScratchPool.Put(sc)
				return nil, err
			}
		}
		out[i] = BlockSample{Block: c.Block, Points: sel, Saturated: sat}
		coinScratchPool.Put(sc)
		cCoins.Add(int64(end - start))
		cSat.Add(int64(sat))
		cSampled.Add(int64(count))
	}
	s := &Sample{Norm: norm, DataPasses: 2}
	s.gather(out)
	return s, nil
}
