package core

import (
	"fmt"
	"math"
	"path/filepath"
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
			want, err := exactNormAt(tc.ds, tc.est, alpha, floor, 0, blockSize)
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
		norm, err := exactNormAt(tc.ds, tc.est, opts.Alpha, floor, 0, blockSize)
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

// oneRound runs the one-round sharded draw the way the shard coordinator
// does, over a round-robin partition of the blocks: each shard proposes
// its blocks, the partials fold in global block order and ResolveBlocks
// decides every block and gathers the sample.
func oneRound(t *testing.T, ds dataset.Dataset, est DensityEstimator, opts Options, base uint64, shards int) *Sample {
	t.Helper()
	numBlocks := parallel.NumBlocks(ds.Len(), opts.BlockSize)
	cands := make([]BlockCandidates, numBlocks)
	for _, blocks := range partition(numBlocks, shards) {
		got, err := ProposeBlocks(ds, est, opts, base, blocks)
		if err != nil {
			t.Fatalf("ProposeBlocks: %v", err)
		}
		for i, b := range blocks {
			if got[i].Block != b {
				t.Fatalf("proposal %d is for block %d, want %d", i, got[i].Block, b)
			}
			cands[b] = got[i]
		}
	}
	partials := make([]float64, numBlocks)
	for b := range cands {
		partials[b] = cands[b].Partial
	}
	out, err := ResolveBlocks(ds, opts, FoldNorm(partials), cands)
	if err != nil {
		t.Fatalf("ResolveBlocks: %v", err)
	}
	return out
}

// sameBits fails unless got equals want bit for bit: Norm, Saturated,
// DataPasses and every point and weight.
func sameBits(t *testing.T, want, got *Sample, label string) {
	t.Helper()
	if math.Float64bits(got.Norm) != math.Float64bits(want.Norm) {
		t.Fatalf("%s: norm %x, want %x", label, math.Float64bits(got.Norm), math.Float64bits(want.Norm))
	}
	if got.Saturated != want.Saturated || got.DataPasses != want.DataPasses {
		t.Fatalf("%s: saturated %d passes %d, want %d and %d", label, got.Saturated, got.DataPasses, want.Saturated, want.DataPasses)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d points, want %d", label, len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		if !got.Points[i].P.Equal(want.Points[i].P) || math.Float64bits(got.Points[i].W) != math.Float64bits(want.Points[i].W) {
			t.Fatalf("%s: point %d = %+v, want %+v", label, i, got.Points[i], want.Points[i])
		}
	}
}

// columnDensity reads a point's density from its second coordinate, so a
// test places every weight exactly.
type columnDensity struct{}

func (columnDensity) Density(p geom.Point) float64 { return p[1] }

// clipAndUnderflow lays out 2,500 points of density 1 to 2 in blocks of
// 128, with one point of density 4,000 in block 3, whose probability
// clips at 1 at a = 1 and b = 300, and one at the floor 5e-324 in block
// 7, whose probability b·w/k_a underflows to 0.
func clipAndUnderflow(t *testing.T) (dataset.Dataset, Options) {
	t.Helper()
	const blockSize = 128
	rng := stats.NewRNG(63)
	pts := make([]geom.Point, 2500)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), 1 + rng.Float64()}
	}
	pts[3*blockSize+17][1] = 4000
	pts[7*blockSize+5][1] = 5e-324
	return dataset.MustInMemory(pts), Options{Alpha: 1, TargetSize: 300, BlockSize: blockSize, FloorDensity: 5e-324}
}

// matchesDraw runs Draw under seed and the one-round sharded draw over
// 1, 2, 3 and 8 shards with 1 and 8 workers each, fails unless every run
// reproduces Draw bit for bit, and returns Draw's sample.
func matchesDraw(t *testing.T, ds dataset.Dataset, est DensityEstimator, opts Options, seed uint64, label string) *Sample {
	t.Helper()
	want, err := Draw(ds, est, opts, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	base := DrawStreamBase(stats.NewRNG(seed))
	for _, shards := range []int{1, 2, 3, 8} {
		for _, workers := range []int{1, 8} {
			opts.Parallelism = workers
			got := oneRound(t, ds, est, opts, base, shards)
			sameBits(t, want, got, fmt.Sprintf("%s shards=%d workers=%d", label, shards, workers))
		}
	}
	return want
}

// TestOneRoundMatchesDraw: the one-round sharded draw reproduces Draw bit
// for bit — points, weights, Norm and Saturated — across exponents, shard
// counts and worker counts, on in-memory and file-backed data (where the
// coordinator's rows come from range scans). a = -1.5 clips.
func TestOneRoundMatchesDraw(t *testing.T) {
	setup := stats.NewRNG(405)
	mem, _ := twoBlobs(2000, 1000, setup)
	est := buildKDE(t, mem, 120, setup)
	path := filepath.Join(t.TempDir(), "blobs.dbs")
	if err := dataset.SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	file, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if dataset.Resident(file) {
		t.Fatal("the DBS1 fixture is resident; it must take the non-resident draw path")
	}
	for _, ds := range []dataset.Dataset{mem, file} {
		for _, alpha := range []float64{-1.5, -0.5, 0, 0.5, 1} {
			want := matchesDraw(t, ds, est, Options{Alpha: alpha, TargetSize: 400, BlockSize: 256}, 77, fmt.Sprintf("%T alpha=%v", ds, alpha))
			if alpha == -1.5 && want.Saturated == 0 {
				t.Errorf("%T alpha=-1.5: nothing clips", ds)
			}
		}
	}
}

// TestResolveBlocksRedrawsUndecidedBlocks: the two blocks that once had
// to be redrawn in a second round — block 3, with a probability clipped
// at 1, and block 7, whose smallest probability underflows to 0 — are
// decided by ResolveBlocks from the one round's variates: the merged
// sample matches Draw, keeps the clipped point and drops the underflowing
// one.
func TestResolveBlocksRedrawsUndecidedBlocks(t *testing.T) {
	ds, opts := clipAndUnderflow(t)
	want := matchesDraw(t, ds, columnDensity{}, opts, 11, "clip and underflow")
	if want.Saturated != 1 || 300*5e-324/want.Norm != 0 {
		t.Fatalf("layout: saturated %d, smallest probability %v; want 1 and 0", want.Saturated, 300*5e-324/want.Norm)
	}
	kept := false
	for _, wp := range want.Points {
		if wp.P[1] == 5e-324 {
			t.Errorf("the point of probability 0 in block 7 was kept")
		}
		if wp.P[1] == 4000 {
			kept = true
			if wp.W != 1 {
				t.Errorf("the clipped point in block 3 has weight %v, want 1", wp.W)
			}
		}
	}
	if !kept {
		t.Error("the point of probability 1 in block 3 was dropped")
	}
}

// TestOneRoundValidation pins what ProposeBlocks and ResolveBlocks refuse:
// unordered or repeated blocks, a non-positive target, degenerate norms
// and every malformed candidate list Check rejects.
func TestOneRoundValidation(t *testing.T) {
	rng := stats.NewRNG(5)
	ds, _ := twoBlobs(200, 200, rng)
	est := buildKDE(t, ds, 40, rng)
	good := Options{Alpha: 0.5, TargetSize: 50, BlockSize: 128}
	for name, blocks := range map[string][]int{"unordered": {1, 0}, "repeated": {2, 2}, "out of range": {99}} {
		if _, err := ProposeBlocks(ds, est, good, 1, blocks); err == nil {
			t.Errorf("ProposeBlocks accepted %s blocks %v", name, blocks)
		}
	}
	if _, err := ProposeBlocks(ds, est, Options{Alpha: 0.5, BlockSize: 128}, 1, []int{0}); err == nil {
		t.Error("ProposeBlocks accepted a zero TargetSize")
	}
	cands, err := ProposeBlocks(ds, est, good, 1, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, norm := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ResolveBlocks(ds, good, norm, cands); err == nil {
			t.Errorf("ResolveBlocks accepted norm %v", norm)
		}
	}
	if _, err := ResolveBlocks(ds, Options{BlockSize: 128}, 100, cands); err == nil {
		t.Error("ResolveBlocks accepted a zero TargetSize")
	}
	c := cands[1]
	if len(c.Index) < 2 {
		t.Fatalf("block 1 has %d candidates; the cases below need 2", len(c.Index))
	}
	clone := func() BlockCandidates {
		d := c
		d.Index = append([]int(nil), c.Index...)
		d.W = append([]float64(nil), c.W...)
		d.U = append([]float64(nil), c.U...)
		return d
	}
	bad := map[string]func(d *BlockCandidates){
		"block out of range": func(d *BlockCandidates) { d.Block = 4 },
		"negative partial":   func(d *BlockCandidates) { d.Partial = -1 },
		"NaN partial":        func(d *BlockCandidates) { d.Partial = math.NaN() },
		"short weights":      func(d *BlockCandidates) { d.W = d.W[:len(d.W)-1] },
		"short variates":     func(d *BlockCandidates) { d.U = d.U[1:] },
		"index outside":      func(d *BlockCandidates) { d.Index[0] = 0 },
		"index repeated":     func(d *BlockCandidates) { d.Index[1] = d.Index[0] },
		"variate of 1":       func(d *BlockCandidates) { d.U[0] = 1 },
		"negative variate":   func(d *BlockCandidates) { d.U[0] = -0.5 },
		"NaN variate":        func(d *BlockCandidates) { d.U[0] = math.NaN() },
		"NaN weight":         func(d *BlockCandidates) { d.W[0] = math.NaN() },
		"infinite weight":    func(d *BlockCandidates) { d.W[0] = math.Inf(1) },
		"negative weight":    func(d *BlockCandidates) { d.W[0] = -math.SmallestNonzeroFloat64 },
	}
	for name, mutate := range bad {
		d := clone()
		mutate(&d)
		if err := d.Check(ds.Len(), good.BlockSize); err == nil {
			t.Errorf("Check accepted %s", name)
		}
		broken := append([]BlockCandidates(nil), cands...)
		broken[1] = d
		if _, err := ResolveBlocks(ds, good, 100, broken); err == nil {
			t.Errorf("ResolveBlocks accepted %s", name)
		}
	}
	for i := range cands {
		if err := cands[i].Check(ds.Len(), good.BlockSize); err != nil {
			t.Errorf("Check rejected ProposeBlocks's own block %d: %v", cands[i].Block, err)
		}
	}
}
