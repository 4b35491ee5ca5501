package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// shardCase is one dataset under shard-parity test: a plain in-memory set
// and a frozen generation view taken before an append, which is the shape
// sharded serving actually scans (generation-pinned windows).
type shardCase struct {
	name string
	ds   dataset.Dataset
	est  DensityEstimator
}

func shardCases(t *testing.T) []shardCase {
	t.Helper()
	rng := stats.NewRNG(41)
	base, _ := twoBlobs(1800, 1200, rng)
	baseEst := buildKDE(t, base, 90, rng)

	// Appended-generation view: freeze a window over the first generation,
	// then grow the parent. The view must shard exactly like a plain
	// dataset — old blocks are untouched by the append.
	grown, _ := twoBlobs(1500, 900, stats.NewRNG(42))
	gen1 := grown.Len()
	view, err := dataset.Window(grown, 0, gen1)
	if err != nil {
		t.Fatal(err)
	}
	extra := make([]geom.Point, 700)
	erng := stats.NewRNG(43)
	for i := range extra {
		extra[i] = geom.Point{erng.Float64(), erng.Float64()}
	}
	if err := grown.Append(extra...); err != nil {
		t.Fatal(err)
	}
	viewEst := buildKDE(t, dataset.MustInMemory(grown.Points()[:gen1]), 90, stats.NewRNG(44))

	return []shardCase{
		{"inmemory", base, baseEst},
		{"appended_gen_view", view, viewEst},
	}
}

// partition deals global blocks 0..numBlocks-1 round-robin into shards
// groups. The real coordinator places by consistent hash; parity must hold
// for any partition, so the test uses the simplest adversarial one.
func partition(numBlocks, shards int) [][]int {
	out := make([][]int, shards)
	for b := 0; b < numBlocks; b++ {
		out[b%shards] = append(out[b%shards], b)
	}
	return out
}

// TestNormPartialsMergeExact is the exact-merge property: per-shard
// partial k_a sums, reassembled into global block order and summed
// sequentially, equal ExactNorm to the last bit (0 ULP) at every shard
// count and worker count, including over appended-generation views.
func TestNormPartialsMergeExact(t *testing.T) {
	const blockSize = 256
	for _, tc := range shardCases(t) {
		for _, alpha := range []float64{0, 0.5, 1, -0.5} {
			floor := defaultFloor(tc.est)
			want, err := ExactNormParallel(tc.ds, tc.est, alpha, floor, 0, blockSize)
			if err != nil {
				t.Fatalf("%s alpha=%v: exact norm: %v", tc.name, alpha, err)
			}
			n := tc.ds.Len()
			numBlocks := parallel.NumBlocks(n, blockSize)
			for _, shards := range []int{1, 2, 3, 8} {
				for _, workers := range []int{1, 8} {
					opts := Options{Alpha: alpha, BlockSize: blockSize, Parallelism: workers}
					global := make([]float64, numBlocks)
					for _, blocks := range partition(numBlocks, shards) {
						parts, err := NormPartials(tc.ds, tc.est, opts, blocks)
						if err != nil {
							t.Fatalf("%s: NormPartials: %v", tc.name, err)
						}
						if len(parts) != len(blocks) {
							t.Fatalf("%s: %d partials for %d blocks", tc.name, len(parts), len(blocks))
						}
						for i, b := range blocks {
							global[b] = parts[i]
						}
					}
					var got float64
					for _, p := range global {
						got += p
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s alpha=%v shards=%d workers=%d: merged %x != exact %x",
							tc.name, alpha, shards, workers,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestDrawBlocksMatchesDraw is the full sharded-draw parity: DrawBlocks
// run over any partition of the blocks, concatenated in global block
// order, reproduces Draw's points, weights, and saturation count exactly,
// and consumes the same single draw of the parent RNG.
func TestDrawBlocksMatchesDraw(t *testing.T) {
	const (
		blockSize = 256
		seed      = 7001
	)
	for _, tc := range shardCases(t) {
		opts := Options{Alpha: 0.5, TargetSize: 400, BlockSize: blockSize}
		rng := stats.NewRNG(seed)
		want, err := Draw(tc.ds, tc.est, opts, rng)
		if err != nil {
			t.Fatalf("%s: Draw: %v", tc.name, err)
		}

		rng2 := stats.NewRNG(seed)
		floor := defaultFloor(tc.est)
		norm, err := ExactNormParallel(tc.ds, tc.est, opts.Alpha, floor, 0, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(norm) != math.Float64bits(want.Norm) {
			t.Fatalf("%s: norm %x != Draw's %x", tc.name, math.Float64bits(norm), math.Float64bits(want.Norm))
		}
		base := DrawStreamBase(rng2)
		if g, w := rng2.Uint64(), rng.Uint64(); g != w {
			t.Fatalf("%s: RNG state diverged after base draw: %x != %x", tc.name, g, w)
		}

		n := tc.ds.Len()
		numBlocks := parallel.NumBlocks(n, blockSize)
		for _, shards := range []int{1, 2, 3, 8} {
			for _, workers := range []int{1, 8} {
				sopts := opts
				sopts.Parallelism = workers
				perBlock := make([]BlockSample, numBlocks)
				totalSat := 0
				for _, blocks := range partition(numBlocks, shards) {
					bs, err := DrawBlocks(tc.ds, tc.est, sopts, norm, base, blocks)
					if err != nil {
						t.Fatalf("%s: DrawBlocks: %v", tc.name, err)
					}
					for i, b := range blocks {
						if bs[i].Block != b {
							t.Fatalf("%s: result %d is for block %d, want %d", tc.name, i, bs[i].Block, b)
						}
						perBlock[b] = bs[i]
						totalSat += bs[i].Saturated
					}
				}
				var got []dataset.WeightedPoint
				for _, bs := range perBlock {
					got = append(got, bs.Points...)
				}
				if len(got) != len(want.Points) {
					t.Fatalf("%s shards=%d workers=%d: %d points, want %d",
						tc.name, shards, workers, len(got), len(want.Points))
				}
				for i := range got {
					if !got[i].P.Equal(want.Points[i].P) {
						t.Fatalf("%s shards=%d workers=%d: point %d = %v, want %v",
							tc.name, shards, workers, i, got[i].P, want.Points[i].P)
					}
					if math.Float64bits(got[i].W) != math.Float64bits(want.Points[i].W) {
						t.Fatalf("%s shards=%d workers=%d: weight %d bits differ", tc.name, shards, workers, i)
					}
				}
				if totalSat != want.Saturated {
					t.Errorf("%s shards=%d workers=%d: saturated %d, want %d",
						tc.name, shards, workers, totalSat, want.Saturated)
				}
			}
		}
	}
}

// TestShardDrawValidation pins the option combinations the sharded path
// refuses: OnePass, a negative floor, bad norms, out-of-range blocks.
func TestShardDrawValidation(t *testing.T) {
	rng := stats.NewRNG(5)
	ds, _ := twoBlobs(200, 200, rng)
	est := buildKDE(t, ds, 40, rng)
	good := Options{Alpha: 0.5, TargetSize: 50, BlockSize: 128}

	if _, err := NormPartials(ds, est, Options{OnePass: true}, []int{0}); err == nil {
		t.Error("OnePass accepted by NormPartials")
	}
	if _, err := NormPartials(ds, est, Options{FloorDensity: -1}, []int{0}); err == nil {
		t.Error("negative FloorDensity accepted by NormPartials")
	}
	if _, err := NormPartials(ds, est, good, []int{99}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := DrawBlocks(ds, est, good, 0, 1, []int{0}); err == nil {
		t.Error("zero norm accepted")
	}
	if _, err := DrawBlocks(ds, est, good, math.NaN(), 1, []int{0}); err == nil {
		t.Error("NaN norm accepted")
	}
	if _, err := DrawBlocks(ds, est, Options{Alpha: 0.5, BlockSize: 128}, 1, 1, []int{0}); err == nil {
		t.Error("zero TargetSize accepted")
	}
}
