package gridsample

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func denseSparse(rng *stats.RNG) *dataset.InMemory {
	var pts []geom.Point
	for i := 0; i < 9000; i++ {
		pts = append(pts, geom.Point{0.2 + 0.05*rng.Float64(), 0.2 + 0.05*rng.Float64()})
	}
	for i := 0; i < 1000; i++ {
		pts = append(pts, geom.Point{0.6 + 0.3*rng.Float64(), 0.6 + 0.3*rng.Float64()})
	}
	return dataset.MustInMemory(pts)
}

func TestBuildGridOnePass(t *testing.T) {
	rng := stats.NewRNG(1)
	ds := denseSparse(rng)
	gr, err := BuildGrid(ds, geom.UnitCube(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Passes() != 1 {
		t.Errorf("grid build took %d passes", ds.Passes())
	}
	if gr.total != ds.Len() {
		t.Errorf("grid total = %d", gr.total)
	}
}

func TestGridCountsDenseCells(t *testing.T) {
	rng := stats.NewRNG(2)
	ds := denseSparse(rng)
	gr, err := BuildGrid(ds, geom.UnitCube(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dense := gr.Count(geom.Point{0.22, 0.22})
	sparse := gr.Count(geom.Point{0.75, 0.75})
	if dense <= sparse {
		t.Errorf("dense cell count %d <= sparse %d", dense, sparse)
	}
	if gr.Density(geom.Point{0.22, 0.22}) <= gr.Density(geom.Point{0.75, 0.75}) {
		t.Error("density ordering wrong")
	}
}

func TestGridClampsOutOfDomain(t *testing.T) {
	rng := stats.NewRNG(3)
	ds := denseSparse(rng)
	gr, err := BuildGrid(ds, geom.UnitCube(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-domain queries must not panic and map to boundary cells.
	_ = gr.Count(geom.Point{-5, 2})
}

func TestCollisionsUnderTinyMemory(t *testing.T) {
	rng := stats.NewRNG(4)
	ds := denseSparse(rng)
	// 16 buckets for a 64x64 grid: collisions guaranteed.
	gr, err := BuildGrid(ds, geom.UnitCube(2), Options{MemoryBytes: 16 * 16})
	if err != nil {
		t.Fatal(err)
	}
	if gr.collided == 0 {
		t.Error("expected collisions with 16 buckets")
	}
	// Generous memory: no collisions for the few hundred occupied cells.
	gr2, err := BuildGrid(ds, geom.UnitCube(2), Options{MemoryBytes: 5 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if gr2.collided != 0 {
		t.Errorf("unexpected collisions: %d", gr2.collided)
	}
}

func TestDrawExpectedSize(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := denseSparse(rng)
	for _, e := range []float64{1, 0, -0.5} {
		res, err := Draw(ds, geom.UnitCube(2), Options{Exponent: e, TargetSize: 500}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) < 330 || len(res.Points) > 670 {
			t.Errorf("e=%v sample size = %d, want ~500", e, len(res.Points))
		}
		if res.DataPasses != 2 {
			t.Errorf("passes = %d", res.DataPasses)
		}
	}
}

func TestExponentOneIsUniform(t *testing.T) {
	rng := stats.NewRNG(6)
	ds := denseSparse(rng)
	res, err := Draw(ds, geom.UnitCube(2), Options{Exponent: 1, TargetSize: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// With e=1 the probability is b/n for everyone: weights all equal n/b.
	want := float64(ds.Len()) / 1000
	for _, wp := range res.Points {
		if math.Abs(wp.W-want) > 1e-9 {
			t.Fatalf("e=1 weight %v, want %v", wp.W, want)
		}
	}
	// Dense region (90% of points) gets ~90% of the sample.
	dense := 0
	for _, wp := range res.Points {
		if wp.P[0] < 0.4 {
			dense++
		}
	}
	frac := float64(dense) / float64(len(res.Points))
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("e=1 dense fraction = %v, want ~0.9", frac)
	}
}

func TestNegativeExponentOversamplesSparse(t *testing.T) {
	rng := stats.NewRNG(7)
	ds := denseSparse(rng)
	res, err := Draw(ds, geom.UnitCube(2), Options{Exponent: -0.5, TargetSize: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sparse := 0
	for _, wp := range res.Points {
		if wp.P[0] > 0.4 {
			sparse++
		}
	}
	frac := float64(sparse) / float64(len(res.Points))
	// Sparse region holds 10% of the data; e=-0.5 must push well above that.
	if frac < 0.3 {
		t.Errorf("e=-0.5 sparse fraction = %v, want oversampled", frac)
	}
}

func TestDrawValidation(t *testing.T) {
	rng := stats.NewRNG(8)
	ds := denseSparse(rng)
	if _, err := Draw(ds, geom.UnitCube(2), Options{TargetSize: 0}, rng); err == nil {
		t.Error("TargetSize=0 accepted")
	}
	if _, err := BuildGrid(ds, geom.UnitCube(3), Options{}); err == nil {
		t.Error("domain dims mismatch accepted")
	}
	if _, err := BuildGrid(ds, geom.UnitCube(2), Options{MemoryBytes: 8}); err == nil {
		t.Error("sub-bucket memory accepted")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 100: 128, 1024: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestGridAsDensityEstimatorOrdering(t *testing.T) {
	// Density through the grid must preserve the dense/sparse ordering
	// that internal/core relies on when using it as an estimator.
	rng := stats.NewRNG(9)
	ds := denseSparse(rng)
	gr, err := BuildGrid(ds, geom.UnitCube(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Density(geom.Point{0.21, 0.21}) < 100*gr.Density(geom.Point{0.95, 0.05})+1 {
		// dense blob density vastly exceeds empty-corner density
		t.Error("grid density contrast too low")
	}
}

// TestTopEdgeCellIndexing is the property test for the top boundary: a
// point with any subset of its coordinates exactly on the domain max must
// land in cell g-1 along those dimensions — the same cell as an interior
// point of the top cell — never an out-of-range index that hashes to (and
// pollutes) an unrelated bucket. Swept across dims {1,2,4} over
// randomized domains (including negative mins and uneven sides).
func TestTopEdgeCellIndexing(t *testing.T) {
	rng := stats.NewRNG(8011)
	const g = cellsPerDim
	for _, d := range []int{1, 2, 4} {
		for trial := 0; trial < 25; trial++ {
			min := make(geom.Point, d)
			max := make(geom.Point, d)
			for j := 0; j < d; j++ {
				min[j] = -2 + 3*rng.Float64()
				max[j] = min[j] + 0.1 + 2*rng.Float64()
			}
			domain := geom.Rect{Min: min, Max: max}

			// One interior anchor point in the top corner cell: the
			// midpoint of cell g-1 along every dimension.
			anchor := make(geom.Point, d)
			for j := 0; j < d; j++ {
				anchor[j] = min[j] + domain.Side(j)*(float64(g)-0.5)/float64(g)
			}
			ds := dataset.MustInMemory([]geom.Point{anchor})
			gr, err := BuildGrid(ds, domain, Options{})
			if err != nil {
				t.Fatal(err)
			}
			anchorID := gr.cellID(anchor)

			// Every point with a random subset of coordinates pinned
			// to the exact domain max (the rest in the top cell's
			// interior) must share the anchor's cell id and count.
			for variant := 0; variant < 8; variant++ {
				p := anchor.Clone()
				pinned := 0
				for j := 0; j < d; j++ {
					if variant == 0 || rng.Bernoulli(0.5) {
						p[j] = max[j]
						pinned++
					}
				}
				if pinned == 0 {
					p[0] = max[0] // always test at least one pinned coordinate
				}
				if got := gr.cellID(p); got != anchorID {
					t.Fatalf("d=%d g=%d: top-edge point %v cell id %#x, want top cell %#x",
						d, g, p, got, anchorID)
				}
				if got := gr.Count(p); got != 1 {
					t.Fatalf("d=%d g=%d: top-edge point %v count %d, want the anchor's 1",
						d, g, p, got)
				}
			}
		}
	}
}

// TestGridWithinMemoryBudget: the hash table a budget buys costs at most
// that budget, and rounding the bucket count down to a power of two keeps
// more than half of it.
func TestGridWithinMemoryBudget(t *testing.T) {
	ds := denseSparse(stats.NewRNG(5))
	for _, budget := range []int{5 << 20, 65536} {
		gr, err := BuildGrid(ds, geom.UnitCube(2), Options{MemoryBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		used := len(gr.buckets) * int(unsafe.Sizeof(bucket{}))
		if used > budget || 2*used <= budget {
			t.Errorf("budget %d: %d buckets take %d bytes, want within (%d, %d]", budget, len(gr.buckets), used, budget/2, budget)
		}
		res, err := Draw(ds, geom.UnitCube(2), Options{Exponent: 1, TargetSize: 100, MemoryBytes: budget}, stats.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		if res.Bytes != used {
			t.Errorf("budget %d: Draw reports %d bytes, the table takes %d", budget, res.Bytes, used)
		}
	}
}
