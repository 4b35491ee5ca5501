package core

import (
	"fmt"
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
// onePass), and one coin per point from its block's own split stream: one
// uniform u per point, kept when u < min(1, b·w/k_a). It shares no code
// with Draw beyond the estimator and the RNG.
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
		est.DensityBatch(blk, weights[i], nil)
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
			if streams[i].Float64() < prob {
				out.Points = append(out.Points, dataset.WeightedPoint{P: p, W: 1 / prob})
			}
		}
	}
	return out
}

// TestDrawMatchesReference pins Draw to the naive Fig. 1 sampler bit for
// bit, on an in-memory dataset (Draw caches the pass-1 weights) and a
// file-backed one (Draw recomputes them in pass 2), exact and one-pass,
// across exponents and worker counts, and in a draw where probabilities
// clip at 1.
func TestDrawMatchesReference(t *testing.T) {
	setup := stats.NewRNG(404)
	mem, pts := twoBlobs(3000, 3000, setup)
	est := buildKDE(t, mem, 200, setup)
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
	// The floor binds for roughly the sparsest tenth of the points. At
	// a = -2 and b = 2000 their probabilities clip.
	const floor, blockSize = 2e4, 512
	cases := []struct {
		alpha float64
		b     int
	}{{1, 500}, {0, 500}, {-0.5, 500}, {-2, 2000}}
	for _, ds := range []dataset.Dataset{mem, file} {
		for _, c := range cases {
			for _, onePass := range []bool{false, true} {
				want := refDraw(pts, est, c.alpha, floor, c.b, blockSize, onePass, stats.NewRNG(9))
				if c.alpha == -2 && !onePass && want.Saturated == 0 {
					t.Fatalf("alpha=%v b=%d: nothing clips", c.alpha, c.b)
				}
				for _, workers := range []int{1, 4, 8} {
					opts := Options{Alpha: c.alpha, TargetSize: c.b, FloorDensity: floor, OnePass: onePass, BlockSize: blockSize, Parallelism: workers}
					got, err := Draw(ds, est, opts, stats.NewRNG(9))
					if err != nil {
						t.Fatal(err)
					}
					sameSample(t, want, got, fmt.Sprintf("reference alpha=%v b=%d", c.alpha, c.b))
				}
			}
		}
	}
}

// refExtend is ExtendDraw written out the same way: the delta's weights
// block by block, k_a' = K·s^a + Σ_delta w with the KDE rescaling
// s = (n'/N)·(ks/ks'), the prior thinned at r = K·s^a/k_a' from stream 0
// of one SplitsValues draw, and delta block b flipped from stream 1+b by
// refDraw's coin rule.
func refExtend(pts []geom.Point, deltaStart int, est *kde.Estimator, prior *Sample, ns NormState, alpha, floor float64, b, blockSize int, rng *stats.RNG) *Sample {
	weight := func(f float64) float64 { return math.Pow(math.Max(f, floor), alpha) }
	delta := pts[deltaStart:]
	var blocks [][]geom.Point
	for start := 0; start < len(delta); start += blockSize {
		blocks = append(blocks, delta[start:min(start+blockSize, len(delta))])
	}
	weights := make([][]float64, len(blocks))
	var d float64
	for i, blk := range blocks {
		weights[i] = make([]float64, len(blk))
		est.DensityBatch(blk, weights[i], nil)
		var partial float64
		for j, f := range weights[i] {
			weights[i][j] = weight(f)
			partial += weights[i][j]
		}
		d += partial
	}
	s := (float64(len(pts)) / float64(ns.N)) * (float64(ns.Kernels) / float64(len(est.Centers())))
	kbase := ns.K * math.Pow(s, alpha)
	norm := kbase + d
	r := kbase / norm
	streams := rng.SplitsValues(1+len(blocks), nil)
	out := &Sample{Norm: norm, DataPasses: 2}
	for _, wp := range prior.Points {
		if streams[0].Bernoulli(r) {
			out.Points = append(out.Points, dataset.WeightedPoint{P: wp.P, W: wp.W / r})
		}
	}
	for i, blk := range blocks {
		for j, p := range blk {
			prob := float64(b) * weights[i][j] / norm
			if prob >= 1 {
				prob = 1
				out.Saturated++
			}
			if streams[1+i].Float64() < prob {
				out.Points = append(out.Points, dataset.WeightedPoint{P: p, W: 1 / prob})
			}
		}
	}
	return out
}

// TestExtendDrawMatchesReference pins ExtendDraw to refExtend bit for bit
// — points, weights, Norm and Saturated — over an appended
// in-memory dataset (the delta's weights are kept between the passes) and
// the same rows file-backed (they are recomputed), across exponents and
// worker counts. It is what notices a delta block flipping its coins from
// the wrong stream, including the thinning stream.
func TestExtendDrawMatchesReference(t *testing.T) {
	setup := stats.NewRNG(505)
	mem, pts := twoBlobs(2500, 2500, setup)
	n := len(pts)
	prefix := dataset.MustInMemory(pts)
	// The delta thickens the dense blob, opens a new sparse region and
	// scatters a few isolated points, whose floored weights saturate at
	// a = -0.5.
	for i := 0; i < 1500; i++ {
		switch {
		case i%2 == 0:
			pts = append(pts, geom.Point{0.2 + 0.05*setup.Float64(), 0.2 + 0.05*setup.Float64()})
		case i%10 == 1:
			pts = append(pts, geom.Point{setup.Float64(), setup.Float64()})
		default:
			pts = append(pts, geom.Point{0.05 + 0.3*setup.Float64(), 0.6 + 0.3*setup.Float64()})
		}
	}
	if err := mem.Append(pts[n:]...); err != nil {
		t.Fatal(err)
	}
	priorEst := buildKDE(t, prefix, 200, setup)
	deltaView, err := dataset.DeltaView(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	centers, err := dataset.Reservoir(deltaView, 60, setup)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := priorEst.Extend(centers, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "appended.dbs")
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
	// The floor binds for the isolated points and their neighbours.
	const floor, b, blockSize = 2e3, 2000, 256
	for _, alpha := range []float64{1, 0, -0.5} {
		base := Options{Alpha: alpha, TargetSize: b, FloorDensity: floor, BlockSize: blockSize}
		prior, err := Draw(prefix, priorEst, base, stats.NewRNG(31))
		if err != nil {
			t.Fatal(err)
		}
		ns := NormState{K: prior.Norm, N: n, Kernels: priorEst.NumKernels()}
		want := refExtend(pts, n, ext, prior, ns, alpha, floor, b, blockSize, stats.NewRNG(9))
		for _, ds := range []dataset.Dataset{mem, file} {
			for _, workers := range []int{1, 8} {
				opts := base
				opts.Parallelism = workers
				got, _, err := ExtendDraw(ds, ext, ExtendOptions{Options: opts, DeltaStart: n, Prior: prior, PriorNorm: ns}, stats.NewRNG(9))
				if err != nil {
					t.Fatal(err)
				}
				sameSample(t, want, got, fmt.Sprintf("alpha=%v %T workers=%d", alpha, ds, workers))
			}
		}
	}
}
