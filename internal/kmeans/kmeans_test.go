package kmeans

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func weighted(pts []geom.Point, w float64) []dataset.WeightedPoint {
	out := make([]dataset.WeightedPoint, len(pts))
	for i, p := range pts {
		out[i] = dataset.WeightedPoint{P: p, W: w}
	}
	return out
}

func blobs3(rng *stats.RNG, each int) ([]dataset.WeightedPoint, []geom.Point) {
	centers := []geom.Point{{0.2, 0.2}, {0.8, 0.2}, {0.5, 0.8}}
	var pts []geom.Point
	for _, c := range centers {
		for i := 0; i < each; i++ {
			pts = append(pts, geom.Point{c[0] + rng.Normal(0, 0.03), c[1] + rng.Normal(0, 0.03)})
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return weighted(pts, 1), centers
}

func TestValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	pts := weighted([]geom.Point{{1}, {2}}, 1)
	if _, err := Run(nil, Options{K: 1}, rng); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Run(pts, Options{K: 0}, rng); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(pts, Options{K: 3}, rng); err == nil {
		t.Error("K > n accepted")
	}
	bad := []dataset.WeightedPoint{{P: geom.Point{1}, W: -1}}
	if _, err := Run(bad, Options{K: 1}, rng); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestKMeansFindsBlobCenters(t *testing.T) {
	rng := stats.NewRNG(2)
	pts, truth := blobs3(rng, 300)
	res, err := Run(pts, Options{K: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range truth {
		best := math.Inf(1)
		for _, got := range res.Centers {
			if d := geom.Distance(c, got); d < best {
				best = d
			}
		}
		if best > 0.05 {
			t.Errorf("center %v missed by %v", c, best)
		}
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

func TestKMeansCostDecreases(t *testing.T) {
	rng := stats.NewRNG(3)
	pts, _ := blobs3(rng, 200)
	// The cost of assigning every point to Run's seeds, before any
	// Lloyd update.
	seeds := seedPlusPlus(pts, 3, stats.NewRNG(99))
	var seeded float64
	for _, wp := range pts {
		near := math.Inf(1)
		for _, c := range seeds {
			near = min(near, geom.SquaredDistance(wp.P, c))
		}
		seeded += wp.W * near
	}
	full, err := Run(pts, Options{K: 3}, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost > seeded*1.0001 {
		t.Errorf("iterations raised cost: %v -> %v", seeded, full.Cost)
	}
}

func TestWeightsPullCenters(t *testing.T) {
	// Two points, one with 9x the weight: the single center must sit at
	// the weighted mean.
	pts := []dataset.WeightedPoint{
		{P: geom.Point{0, 0}, W: 9},
		{P: geom.Point{1, 0}, W: 1},
	}
	rng := stats.NewRNG(4)
	res, err := Run(pts, Options{K: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centers[0][0]-0.1) > 1e-9 {
		t.Errorf("weighted center = %v, want (0.1, 0)", res.Centers[0])
	}
}

func TestInverseProbabilityWeightsRecoverStructure(t *testing.T) {
	// A biased sample overrepresents the dense blob; inverse-probability
	// weights must restore the true blob means as centers.
	rng := stats.NewRNG(5)
	var pts []dataset.WeightedPoint
	// dense blob sampled at prob 0.9 -> weight 1/0.9
	for i := 0; i < 900; i++ {
		pts = append(pts, dataset.WeightedPoint{
			P: geom.Point{0.2 + rng.Normal(0, 0.02), 0.2 + rng.Normal(0, 0.02)},
			W: 1 / 0.9,
		})
	}
	// sparse blob sampled at prob 0.1 -> weight 10
	for i := 0; i < 100; i++ {
		pts = append(pts, dataset.WeightedPoint{
			P: geom.Point{0.8 + rng.Normal(0, 0.02), 0.8 + rng.Normal(0, 0.02)},
			W: 10,
		})
	}
	res, err := Run(pts, Options{K: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, want := range []geom.Point{{0.2, 0.2}, {0.8, 0.8}} {
		for _, got := range res.Centers {
			if geom.Distance(want, got) < 0.05 {
				found++
				break
			}
		}
	}
	if found != 2 {
		t.Errorf("found %d of 2 weighted centers: %v", found, res.Centers)
	}
}

func TestKEqualsN(t *testing.T) {
	pts := weighted([]geom.Point{{0, 0}, {1, 0}, {0, 1}}, 1)
	rng := stats.NewRNG(6)
	res, err := Run(pts, Options{K: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-9 {
		t.Errorf("K=n cost = %v, want 0", res.Cost)
	}
}

func TestDuplicatePointsNoCrash(t *testing.T) {
	pts := weighted([]geom.Point{{1, 1}, {1, 1}, {1, 1}, {1, 1}}, 1)
	rng := stats.NewRNG(7)
	res, err := Run(pts, Options{K: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-12 {
		t.Errorf("all-duplicates cost = %v", res.Cost)
	}
}

func TestMedoidsAreInputPoints(t *testing.T) {
	rng := stats.NewRNG(8)
	pts, _ := blobs3(rng, 100)
	res, err := RunMedoids(pts, Options{K: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Centers {
		found := false
		for _, wp := range pts {
			if m.Equal(wp.P) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("medoid %v is not an input point", m)
		}
	}
}

func TestMedoidsFindBlobCenters(t *testing.T) {
	rng := stats.NewRNG(9)
	pts, truth := blobs3(rng, 150)
	res, err := RunMedoids(pts, Options{K: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range truth {
		best := math.Inf(1)
		for _, got := range res.Centers {
			if d := geom.Distance(c, got); d < best {
				best = d
			}
		}
		if best > 0.06 {
			t.Errorf("medoid for %v missed by %v", c, best)
		}
	}
}

func TestLabelsConsistentWithCenters(t *testing.T) {
	rng := stats.NewRNG(10)
	pts, _ := blobs3(rng, 100)
	res, err := Run(pts, Options{K: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, wp := range pts {
		got := res.Labels[i]
		for c := range res.Centers {
			if geom.SquaredDistance(wp.P, res.Centers[c]) < geom.SquaredDistance(wp.P, res.Centers[got])-1e-9 {
				t.Fatalf("point %d labelled %d but %d is closer", i, got, c)
			}
		}
	}
}

func TestZeroWeightPointsIgnoredInCenters(t *testing.T) {
	// A zero-weight far-away point must not drag the center.
	pts := []dataset.WeightedPoint{
		{P: geom.Point{0, 0}, W: 1},
		{P: geom.Point{0.1, 0}, W: 1},
		{P: geom.Point{100, 100}, W: 0},
	}
	rng := stats.NewRNG(11)
	res, err := Run(pts, Options{K: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Centers[0][0] > 1 {
		t.Errorf("zero-weight point dragged center to %v", res.Centers[0])
	}
}
