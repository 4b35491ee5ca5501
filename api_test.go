package repro

import (
	"math"
	"strings"
	"testing"
)

// blob generates a dense blob plus a sparse one for facade tests.
func facadePoints(rng *RNG) []Point {
	var pts []Point
	for i := 0; i < 4000; i++ {
		pts = append(pts, Point{0.2 + 0.05*rng.Float64(), 0.2 + 0.05*rng.Float64()})
	}
	for i := 0; i < 1000; i++ {
		pts = append(pts, Point{0.6 + 0.3*rng.Float64(), 0.6 + 0.3*rng.Float64()})
	}
	return pts
}

func TestFacadeEndToEnd(t *testing.T) {
	rng := NewRNG(1)
	ds, err := FromPoints(facadePoints(rng))
	if err != nil {
		t.Fatal(err)
	}
	est, err := BuildEstimator(ds, EstimatorOptions{NumKernels: 300}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BiasedSample(ds, est, SampleOptions{Alpha: 1, Size: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() < 300 || s.Len() > 700 {
		t.Errorf("sample size = %d, want ~500", s.Len())
	}
	if s.DataPasses() != 2 {
		t.Errorf("passes = %d", s.DataPasses())
	}
	if s.Norm() <= 0 {
		t.Errorf("norm = %v", s.Norm())
	}
	clusters, err := ClusterSample(s.Points(), ClusterOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	labels := AssignAll(s.Points(), clusters)
	if len(labels) != s.Len() {
		t.Errorf("labels = %d", len(labels))
	}
}

func TestFacadeUniformAndReservoir(t *testing.T) {
	rng := NewRNG(2)
	ds, err := FromPoints(facadePoints(rng))
	if err != nil {
		t.Fatal(err)
	}
	u, err := UniformSample(ds, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) < 120 || len(u) > 280 {
		t.Errorf("uniform sample = %d", len(u))
	}
	r, err := ReservoirSample(ds, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 100 {
		t.Errorf("reservoir sample = %d", len(r))
	}
}

func TestFacadeWeightedKMeans(t *testing.T) {
	rng := NewRNG(3)
	ds, err := FromPoints(facadePoints(rng))
	if err != nil {
		t.Fatal(err)
	}
	est, err := BuildEstimator(ds, EstimatorOptions{NumKernels: 300}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BiasedSample(ds, est, SampleOptions{Alpha: -0.5, Size: 600}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WeightedKMeans(s.Weighted(), 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Centers should land near (0.225, 0.225) and (0.75, 0.75).
	foundDense, foundSparse := false, false
	for _, c := range res.Centers {
		if math.Abs(c[0]-0.225) < 0.08 && math.Abs(c[1]-0.225) < 0.08 {
			foundDense = true
		}
		if math.Abs(c[0]-0.75) < 0.12 && math.Abs(c[1]-0.75) < 0.12 {
			foundSparse = true
		}
	}
	if !foundDense || !foundSparse {
		t.Errorf("weighted k-means centers off: %v", res.Centers)
	}
	if _, err := WeightedKMedoids(s.Weighted(), 2, rng); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeOutliers(t *testing.T) {
	rng := NewRNG(4)
	pts := facadePoints(rng)
	pts = append(pts, Point{0.95, 0.05}) // isolated
	ds, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	prm := OutlierParams{K: 0.05, P: 1}
	exact, err := FindOutliers(pts, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) == 0 {
		t.Fatal("planted outlier not found exactly")
	}
	est, err := BuildEstimator(ds, EstimatorOptions{NumKernels: 300}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindOutliersApprox(ds, est, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outliers) != len(exact) {
		t.Errorf("approx found %d, exact %d", len(res.Outliers), len(exact))
	}
	n, err := EstimateOutlierCount(ds, est, prm)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("outlier count estimate is zero")
	}
}

func TestFacadeCSV(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dims() != 2 {
		t.Errorf("csv dataset shape %d/%d", ds.Len(), ds.Dims())
	}
}

func TestFacadeBinaryRoundTrip(t *testing.T) {
	rng := NewRNG(5)
	ds, err := FromPoints(facadePoints(rng))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pts.dbs"
	if err := SaveBinary(path, ds); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Len() != ds.Len() {
		t.Errorf("file-backed len = %d", fb.Len())
	}
	// The file-backed dataset must feed the full pipeline.
	est, err := BuildEstimator(fb, EstimatorOptions{NumKernels: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BiasedSample(fb, est, SampleOptions{Alpha: 1, Size: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Error("empty sample from file-backed dataset")
	}
}

func TestFacadeNoiseTrim(t *testing.T) {
	rng := NewRNG(6)
	pts := facadePoints(rng)
	// scatter noise
	for i := 0; i < 200; i++ {
		pts = append(pts, Point{rng.Float64(), rng.Float64()})
	}
	clusters, err := ClusterSample(pts, ClusterOptions{K: 2, NoiseTrim: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
}

func TestFacadePartitionedClustering(t *testing.T) {
	rng := NewRNG(8)
	pts := facadePoints(rng)
	a, err := ClusterSample(pts, ClusterOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterSamplePartitioned(pts, ClusterOptions{K: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("cluster counts %d/%d", len(a), len(b))
	}
	// Both must separate the two blobs (means in different regions).
	regions := func(cs []Cluster) (lo, hi bool) {
		for _, c := range cs {
			if c.Mean[0] < 0.4 {
				lo = true
			} else {
				hi = true
			}
		}
		return
	}
	if lo, hi := regions(b); !lo || !hi {
		t.Errorf("partitioned clustering merged the blobs: %v", b)
	}
}
