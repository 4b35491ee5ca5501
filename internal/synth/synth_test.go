package synth

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

func TestShapesSampleInsideContains(t *testing.T) {
	rng := stats.NewRNG(1)
	shapes := []Shape{
		Box{R: geom.NewRect(geom.Point{0.1, 0.2}, geom.Point{0.4, 0.5})},
		Ball{Center: geom.Point{0.5, 0.5}, Radius: 0.2},
		Ellipsoid{Center: geom.Point{0.5, 0.5}, Radii: geom.Point{0.3, 0.1}},
	}
	for _, s := range shapes {
		for i := 0; i < 2000; i++ {
			p := s.Sample(rng)
			if !s.Contains(p) {
				t.Fatalf("%T sample %v outside its own shape", s, p)
			}
			if !s.Bounds().Contains(p) {
				t.Fatalf("%T sample %v outside bounds", s, p)
			}
		}
	}
}

func TestGaussianShapeMostlyWithin3Sigma(t *testing.T) {
	rng := stats.NewRNG(2)
	g := GaussianShape{Center: geom.Point{0.5, 0.5}, Sigma: 0.05}
	in := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if g.Contains(g.Sample(rng)) {
			in++
		}
	}
	// 2-D gaussian: P(r ≤ 3σ) = 1 - exp(-4.5) ≈ 0.989
	if frac := float64(in) / n; frac < 0.975 {
		t.Errorf("only %v within 3 sigma", frac)
	}
}

func TestBallSampleIsUniformish(t *testing.T) {
	// The inner half-radius disc should hold ~25% of samples in 2-D.
	rng := stats.NewRNG(3)
	b := Ball{Center: geom.Point{0, 0}, Radius: 1}
	inner := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if b.Sample(rng).Norm() <= 0.5 {
			inner++
		}
	}
	if frac := float64(inner) / n; math.Abs(frac-0.25) > 0.02 {
		t.Errorf("inner fraction = %v, want ~0.25", frac)
	}
}

func TestGenerateCountsAndLabels(t *testing.T) {
	rng := stats.NewRNG(4)
	clusters := []Cluster{
		{Shape: Ball{Center: geom.Point{0.3, 0.3}, Radius: 0.1}, Size: 500},
		{Shape: Ball{Center: geom.Point{0.7, 0.7}, Radius: 0.1}, Size: 300},
	}
	l := Generate(clusters, geom.UnitCube(2), 0.25, rng)
	if len(l.Points) != 500+300+200 {
		t.Fatalf("total = %d", len(l.Points))
	}
	counts := map[int]int{}
	for i, lb := range l.Labels {
		counts[lb]++
		if lb >= 0 && !clusters[lb].Shape.Contains(l.Points[i]) {
			t.Fatalf("point %d labelled %d but outside its shape", i, lb)
		}
	}
	if counts[0] != 500 || counts[1] != 300 || counts[LabelNoise] != 200 {
		t.Errorf("label counts = %v", counts)
	}
	if l.NumNoise() != 200 {
		t.Errorf("NumNoise = %d", l.NumNoise())
	}
}

func TestGenerateShuffles(t *testing.T) {
	rng := stats.NewRNG(5)
	clusters := []Cluster{
		{Shape: Ball{Center: geom.Point{0.3, 0.3}, Radius: 0.1}, Size: 500},
		{Shape: Ball{Center: geom.Point{0.7, 0.7}, Radius: 0.1}, Size: 500},
	}
	l := Generate(clusters, geom.UnitCube(2), 0, rng)
	// First 100 labels must not be all-zero (generation order destroyed).
	allSame := true
	for _, lb := range l.Labels[:100] {
		if lb != l.Labels[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("labels not shuffled")
	}
}

func TestPlaceBoxesNoOverlap(t *testing.T) {
	rng := stats.NewRNG(6)
	sides := []float64{0.2, 0.15, 0.1, 0.1, 0.1}
	boxes := PlaceBoxes(5, sides, geom.UnitCube(2), rng)
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Intersects(boxes[j]) {
				t.Fatalf("boxes %d and %d overlap", i, j)
			}
		}
		if boxes[i].Side(0)-sides[i] > 1e-12 {
			t.Fatalf("box %d has wrong side", i)
		}
	}
}

func TestPlaceBoxesImpossiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for over-packed request")
		}
	}()
	rng := stats.NewRNG(7)
	PlaceBoxes(2, []float64{0.9, 0.9}, geom.UnitCube(2), rng)
}

func TestEqualClusters(t *testing.T) {
	rng := stats.NewRNG(8)
	l := EqualClusters(10, 2, 10000, 0.1, rng)
	if len(l.Clusters) != 10 {
		t.Fatalf("clusters = %d", len(l.Clusters))
	}
	if got := len(l.Points); got != 11000 {
		t.Errorf("points = %d, want 11000", got)
	}
}

func TestVariedClustersDensityRatio(t *testing.T) {
	rng := stats.NewRNG(9)
	l := VariedClusters(10, 2, 100000, 10, 20, 0, rng)
	dens := make([]float64, len(l.Clusters))
	for i, c := range l.Clusters {
		dens[i] = float64(c.Size) / volume(c.Shape)
	}
	ratio := dens[0] / dens[len(dens)-1]
	if ratio < 5 || ratio > 20 {
		t.Errorf("density ratio = %v, want ~10", ratio)
	}
	// sizes must span ~20x
	sr := float64(l.Clusters[0].Size) / float64(l.Clusters[9].Size)
	if sr < 10 || sr > 40 {
		t.Errorf("size ratio = %v, want ~20", sr)
	}
}

func TestDS1Shape(t *testing.T) {
	rng := stats.NewRNG(10)
	l := DS1(100000, 0.05, rng)
	if len(l.Clusters) != 5 {
		t.Fatalf("DS1 clusters = %d", len(l.Clusters))
	}
	if len(l.Points) < 99000 || len(l.Points) > 110000 {
		t.Errorf("DS1 size = %d", len(l.Points))
	}
	// Big cluster must dominate.
	if l.Clusters[0].Size < 3*l.Clusters[3].Size {
		t.Error("DS1 big cluster not dominant")
	}
	// Small discs must be denser than the big disc.
	dBig := float64(l.Clusters[0].Size) / volume(l.Clusters[0].Shape)
	dSmall := float64(l.Clusters[3].Size) / volume(l.Clusters[3].Shape)
	if dSmall <= dBig {
		t.Errorf("small disc density %v <= big %v", dSmall, dBig)
	}
}

func TestNamedDatasetSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("large generators")
	}
	rng := stats.NewRNG(11)
	ne := NorthEast(rng)
	if len(ne.Points) != 130000 {
		t.Errorf("NorthEast size = %d", len(ne.Points))
	}
	if len(ne.Clusters) != 3 {
		t.Errorf("NorthEast metros = %d", len(ne.Clusters))
	}
	ca := California(rng)
	if len(ca.Points) != 62553 {
		t.Errorf("California size = %d", len(ca.Points))
	}
	fc := ForestCover(rng)
	if len(fc.Points) < 59000 || len(fc.Points) > 61000 {
		t.Errorf("ForestCover size = %d", len(fc.Points))
	}
	if fc.Points[0].Dims() != 10 {
		t.Errorf("ForestCover dims = %d", fc.Points[0].Dims())
	}
}

func TestPlantOutliers(t *testing.T) {
	rng := stats.NewRNG(12)
	l := EqualClusters(3, 2, 3000, 0, rng)
	PlantOutliers(l, 10, 0.05, rng)
	var outs []int
	for i, lb := range l.Labels {
		if lb == LabelOutlier {
			outs = append(outs, i)
		}
	}
	if len(outs) != 10 {
		t.Fatalf("planted %d outliers", len(outs))
	}
	for _, i := range outs {
		p := l.Points[i]
		for _, c := range l.Clusters {
			if c.Shape.Bounds().MinDist(p) < 0.05 {
				t.Fatalf("outlier %v too close to a cluster", p)
			}
		}
	}
}

func TestDatasetWrapper(t *testing.T) {
	rng := stats.NewRNG(14)
	l := EqualClusters(2, 2, 200, 0, rng)
	ds := l.Dataset()
	if ds.Len() != len(l.Points) {
		t.Errorf("dataset len = %d", ds.Len())
	}
}

func TestSideForDensity(t *testing.T) {
	// 100 points at density 100/0.25 in 2-D needs side 0.5.
	side := sideForDensity(100, 400, 2)
	if math.Abs(side-0.5) > 1e-12 {
		t.Errorf("side = %v", side)
	}
}

// volume returns the approximate volume of a shape's support, used to
// compute per-cluster densities when constructing variable-density mixes.
func volume(s Shape) float64 {
	switch v := s.(type) {
	case Box:
		return v.R.Volume()
	case Ball:
		return geom.UnitBallVolume(v.Center.Dims(), v.Radius)
	case Ellipsoid:
		vol := geom.UnitBallVolume(v.Center.Dims(), 1)
		for _, r := range v.Radii {
			vol *= r
		}
		return vol
	case GaussianShape:
		// effective support ≈ 2σ ball
		return geom.UnitBallVolume(v.Center.Dims(), 2*v.Sigma)
	default:
		b := s.Bounds()
		return b.Volume()
	}
}
