package core

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/stats"
)

// refDraw is Figure 1 written out as plainly as possible: densities per
// block through DensityBatch, weights max(f, floor)^a, k_a summed block by
// block in block order (or approximated from the kernel centers when
// onePass), and one coin per point from its block's own split stream. It
// shares no code with Draw beyond the estimator and the RNG.
func refDraw(pts []geom.Point, est *kde.Estimator, alpha, floor float64, b, blockSize int, onePass bool, rng *stats.RNG) *Sample {
	weight := func(f float64) float64 { return math.Pow(math.Max(f, floor), alpha) }
	var blocks [][]geom.Point
	for start := 0; start < len(pts); start += blockSize {
		blocks = append(blocks, pts[start:min(start+blockSize, len(pts))])
	}
	weights := make([][]float64, len(blocks))
	var norm float64
	for i, blk := range blocks {
		weights[i] = make([]float64, len(blk))
		est.DensityBatch(blk, weights[i])
		var partial float64
		for j, f := range weights[i] {
			weights[i][j] = weight(f)
			partial += weights[i][j]
		}
		norm += partial
	}
	out := &Sample{DataPasses: 2}
	if onePass {
		norm = 0
		for _, c := range est.Centers() {
			norm += weight(est.Density(c))
		}
		norm = norm * float64(est.N()) / float64(len(est.Centers()))
		out.DataPasses = 1
	}
	out.Norm = norm
	streams := rng.SplitsValues(len(blocks), nil)
	for i, blk := range blocks {
		for j, p := range blk {
			prob := float64(b) * weights[i][j] / norm
			if prob >= 1 {
				prob = 1
				out.Saturated++
			}
			if streams[i].Bernoulli(prob) {
				out.Points = append(out.Points, dataset.WeightedPoint{P: p, W: 1 / prob})
			}
		}
	}
	return out
}

// TestDrawMatchesReference pins Draw to the naive Fig. 1 sampler bit for
// bit, on an in-memory dataset (Draw caches the pass-1 weights) and a
// file-backed one (Draw recomputes them in pass 2), exact and one-pass,
// across exponents and worker counts.
func TestDrawMatchesReference(t *testing.T) {
	setup := stats.NewRNG(404)
	mem, pts := twoBlobs(3000, 3000, setup)
	est := buildKDE(t, mem, 200, setup)
	path := filepath.Join(t.TempDir(), "blobs.dbs")
	if err := dataset.SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	file, err := dataset.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The floor binds for roughly the sparsest tenth of the points.
	const floor, b, blockSize = 2e4, 500, 512
	for _, ds := range []dataset.Dataset{mem, file} {
		for _, alpha := range []float64{1, 0, -0.5} {
			for _, onePass := range []bool{false, true} {
				want := refDraw(pts, est, alpha, floor, b, blockSize, onePass, stats.NewRNG(9))
				for _, workers := range []int{1, 4, 8} {
					opts := Options{Alpha: alpha, TargetSize: b, FloorDensity: floor, OnePass: onePass, BlockSize: blockSize, Parallelism: workers}
					got, err := Draw(ds, est, opts, stats.NewRNG(9))
					if err != nil {
						t.Fatal(err)
					}
					sameSample(t, want, got, "reference")
				}
			}
		}
	}
}
