package birch

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func TestCFBasics(t *testing.T) {
	cf := NewCF(geom.Point{1, 2})
	cf.Add(geom.Point{3, 4})
	if cf.N != 2 {
		t.Fatalf("N = %d", cf.N)
	}
	if !cf.LS.Equal(geom.Point{4, 6}) {
		t.Errorf("LS = %v", cf.LS)
	}
	if cf.SS != 1+4+9+16 {
		t.Errorf("SS = %v", cf.SS)
	}
	if !cf.Centroid().Equal(geom.Point{2, 3}) {
		t.Errorf("centroid = %v", cf.Centroid())
	}
}

func TestCFMerge(t *testing.T) {
	a := NewCF(geom.Point{0, 0})
	b := NewCF(geom.Point{2, 0})
	a.Merge(b)
	if a.N != 2 || !a.Centroid().Equal(geom.Point{1, 0}) {
		t.Errorf("merged = %+v", a)
	}
	// radius of {(0,0),(2,0)} is 1
	if math.Abs(a.Radius()-1) > 1e-12 {
		t.Errorf("radius = %v", a.Radius())
	}
}

func TestCFMergeEmpty(t *testing.T) {
	var a CF
	b := NewCF(geom.Point{1, 1})
	a.Merge(b)
	if a.N != 1 || !a.Centroid().Equal(geom.Point{1, 1}) {
		t.Errorf("merge into empty = %+v", a)
	}
	c := NewCF(geom.Point{2, 2})
	c.Merge(CF{})
	if c.N != 1 {
		t.Error("merging empty changed CF")
	}
}

func TestCFRadiusMatchesDefinition(t *testing.T) {
	rng := stats.NewRNG(1)
	pts := make([]geom.Point, 100)
	var cf CF
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
		cf.Add(pts[i])
	}
	c := cf.Centroid()
	var sum float64
	for _, p := range pts {
		sum += geom.SquaredDistance(p, c)
	}
	want := math.Sqrt(sum / 100)
	if math.Abs(cf.Radius()-want) > 1e-9 {
		t.Errorf("radius = %v, want %v", cf.Radius(), want)
	}
}

func TestMergedRadiusDoesNotMutate(t *testing.T) {
	a := NewCF(geom.Point{0, 0})
	b := NewCF(geom.Point{1, 0})
	_ = a.MergedRadius(b)
	if a.N != 1 {
		t.Error("MergedRadius mutated its receiver")
	}
}

func blobDataset(k, each int, rng *stats.RNG) (*dataset.InMemory, []geom.Point) {
	centers := make([]geom.Point, k)
	pts := make([]geom.Point, 0, k*each)
	for c := 0; c < k; c++ {
		cx := float64(c%3)*0.35 + 0.12
		cy := float64(c/3)*0.35 + 0.12
		centers[c] = geom.Point{cx, cy}
		for i := 0; i < each; i++ {
			pts = append(pts, geom.Point{cx + rng.Normal(0, 0.02), cy + rng.Normal(0, 0.02)})
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return dataset.MustInMemory(pts), centers
}

func TestClusterValidation(t *testing.T) {
	rng := stats.NewRNG(2)
	ds, _ := blobDataset(2, 50, rng)
	if _, err := Cluster(ds, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestClusterFindsBlobCenters(t *testing.T) {
	rng := stats.NewRNG(3)
	ds, centers := blobDataset(4, 2000, rng)
	res, err := Cluster(ds, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("got %d clusters", len(res.Clusters))
	}
	// Every true center must be close to some reported centroid.
	for _, c := range centers {
		best := math.Inf(1)
		for _, s := range res.Clusters {
			if d := geom.Distance(c, s.Centroid); d < best {
				best = d
			}
		}
		if best > 0.05 {
			t.Errorf("center %v missed by %v", c, best)
		}
	}
	// Sizes should account for all points.
	total := 0
	for _, s := range res.Clusters {
		total += s.N
	}
	if total != ds.Len() {
		t.Errorf("clusters cover %d of %d points", total, ds.Len())
	}
}

func TestClusterSinglePass(t *testing.T) {
	rng := stats.NewRNG(4)
	ds, _ := blobDataset(2, 500, rng)
	if _, err := Cluster(ds, Options{K: 2}); err != nil {
		t.Fatal(err)
	}
	if ds.Passes() != 1 {
		t.Errorf("BIRCH used %d passes, want 1", ds.Passes())
	}
}

func TestMemoryBudgetForcesRebuilds(t *testing.T) {
	rng := stats.NewRNG(5)
	ds, _ := blobDataset(4, 3000, rng)
	tight, err := Cluster(ds, Options{K: 4, MemoryBudget: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Rebuilds == 0 {
		t.Error("tight budget should force at least one rebuild")
	}
	if tight.Threshold == 0 {
		t.Error("rebuilds must raise the threshold")
	}
	loose, err := Cluster(ds, Options{K: 4, MemoryBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Rebuilds != 0 {
		t.Errorf("loose budget rebuilt %d times", loose.Rebuilds)
	}
	if tight.LeafEntries >= loose.LeafEntries {
		t.Errorf("tight budget leaf entries %d >= loose %d", tight.LeafEntries, loose.LeafEntries)
	}
	// Quality must survive the compression: centers still found.
	if len(tight.Clusters) != 4 {
		t.Errorf("tight run produced %d clusters", len(tight.Clusters))
	}
}

func TestClusterPreservesCount(t *testing.T) {
	rng := stats.NewRNG(6)
	ds, _ := blobDataset(3, 1000, rng)
	res, err := Cluster(ds, Options{K: 3, MemoryBudget: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Clusters {
		total += s.N
	}
	if total != ds.Len() {
		t.Errorf("CF count drift: %d of %d", total, ds.Len())
	}
}

func TestGlobalClusterFewerEntriesThanK(t *testing.T) {
	leaves := []CF{NewCF(geom.Point{0, 0}), NewCF(geom.Point{1, 1})}
	sums := globalCluster(leaves, 5)
	if len(sums) != 2 {
		t.Errorf("got %d summaries, want 2", len(sums))
	}
}

func TestGlobalClusterWeighted(t *testing.T) {
	// A heavy CF and two nearby light ones: merging must favour the
	// closest pair, and the merged centroid must be weight-correct.
	heavy := CF{N: 100, LS: geom.Point{100 * 0.5, 100 * 0.5}, SS: 100 * 0.5}
	l1 := NewCF(geom.Point{0.9, 0.9})
	l2 := NewCF(geom.Point{0.92, 0.9})
	sums := globalCluster([]CF{heavy, l1, l2}, 2)
	if len(sums) != 2 {
		t.Fatalf("got %d", len(sums))
	}
	// one summary is the heavy CF, the other the merged lights
	var small *Summary
	for i := range sums {
		if sums[i].N == 2 {
			small = &sums[i]
		}
	}
	if small == nil {
		t.Fatal("light CFs not merged together")
	}
	if math.Abs(small.Centroid[0]-0.91) > 1e-9 {
		t.Errorf("merged light centroid = %v", small.Centroid)
	}
}

func TestHighDimensional(t *testing.T) {
	rng := stats.NewRNG(7)
	const d = 8
	pts := make([]geom.Point, 0, 2000)
	for c := 0; c < 2; c++ {
		center := make(geom.Point, d)
		for j := range center {
			center[j] = 0.25 + 0.5*float64(c)
		}
		for i := 0; i < 1000; i++ {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = center[j] + rng.Normal(0, 0.03)
			}
			pts = append(pts, p)
		}
	}
	ds := dataset.MustInMemory(pts)
	res, err := Cluster(ds, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("got %d clusters", len(res.Clusters))
	}
	for _, s := range res.Clusters {
		if s.N < 900 || s.N > 1100 {
			t.Errorf("unbalanced cluster N = %d", s.N)
		}
	}
}

// Add folds a point into the feature; the tests build features point by
// point with it.
func (c *CF) Add(p geom.Point) {
	if c.N == 0 {
		*c = NewCF(p)
		return
	}
	c.N++
	for i, v := range p {
		c.LS[i] += v
		c.SS += v * v
	}
}
