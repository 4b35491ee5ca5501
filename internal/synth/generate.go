package synth

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Cluster couples a ground-truth shape with its point count.
type Cluster struct {
	Shape Shape
	Size  int
}

// Labeled is a generated dataset with ground truth attached. Labels[i] is
// the index of the cluster that generated point i, -1 for noise, and -2
// for planted outliers (see PlantOutliers).
type Labeled struct {
	Points   []geom.Point
	Labels   []int
	Clusters []Cluster
	Domain   geom.Rect
}

// Noise label values.
const (
	LabelNoise   = -1
	LabelOutlier = -2
)

// Dataset wraps the points as an in-memory dataset.
func (l *Labeled) Dataset() *dataset.InMemory {
	return dataset.MustInMemory(l.Points)
}

// NumNoise returns how many noise points the dataset contains.
func (l *Labeled) NumNoise() int {
	n := 0
	for _, lb := range l.Labels {
		if lb == LabelNoise {
			n++
		}
	}
	return n
}

// Generate materializes the clusters plus noiseFrac·(Σ sizes) uniform noise
// points over the domain, in randomized global order. This matches §4.1:
// "we add l·|D| uniformly distributed points in D as noise and we say that
// D contains fn = l noise".
func Generate(clusters []Cluster, domain geom.Rect, noiseFrac float64, rng *stats.RNG) *Labeled {
	if noiseFrac < 0 {
		panic("synth: negative noise fraction")
	}
	total := 0
	for _, c := range clusters {
		total += c.Size
	}
	noise := int(noiseFrac * float64(total))
	pts := make([]geom.Point, 0, total+noise)
	labels := make([]int, 0, total+noise)
	for ci, c := range clusters {
		for i := 0; i < c.Size; i++ {
			pts = append(pts, c.Shape.Sample(rng))
			labels = append(labels, ci)
		}
	}
	noiseShape := Box{R: domain}
	for i := 0; i < noise; i++ {
		pts = append(pts, noiseShape.Sample(rng))
		labels = append(labels, LabelNoise)
	}
	// Shuffle so sequential scans and samplers see no generation order.
	rng.Shuffle(len(pts), func(i, j int) {
		pts[i], pts[j] = pts[j], pts[i]
		labels[i], labels[j] = labels[j], labels[i]
	})
	return &Labeled{Points: pts, Labels: labels, Clusters: clusters, Domain: domain.Clone()}
}

// PlaceBoxes places k non-overlapping boxes with the given side lengths
// uniformly in the domain (with a margin), by rejection. It panics when a
// placement cannot be found, which indicates an over-packed request.
func PlaceBoxes(k int, sides []float64, domain geom.Rect, rng *stats.RNG) []geom.Rect {
	if len(sides) != k {
		panic("synth: sides length must equal k")
	}
	d := domain.Dims()
	placed := make([]geom.Rect, 0, k)
	for ci := 0; ci < k; ci++ {
		side := sides[ci]
		ok := false
		for attempt := 0; attempt < 10000; attempt++ {
			min := make(geom.Point, d)
			max := make(geom.Point, d)
			valid := true
			for j := 0; j < d; j++ {
				span := domain.Side(j) - side
				if span <= 0 {
					valid = false
					break
				}
				min[j] = domain.Min[j] + rng.Float64()*span
				max[j] = min[j] + side
			}
			if !valid {
				break
			}
			cand := geom.Rect{Min: min, Max: max}
			clash := false
			for _, r := range placed {
				if cand.Intersects(r) {
					clash = true
					break
				}
			}
			if !clash {
				placed = append(placed, cand)
				ok = true
				break
			}
		}
		if !ok {
			panic(fmt.Sprintf("synth: cannot place box %d (side %g) without overlap", ci, side))
		}
	}
	return placed
}

// EqualClusters builds k same-size, same-density box clusters in the unit
// cube of dimension d, totalling approximately total points, plus the given
// noise fraction. Used by Fig. 4's "10 clusters of different densities"
// baseline shape and the kernel-count sweeps.
func EqualClusters(k, d, total int, noiseFrac float64, rng *stats.RNG) *Labeled {
	size := total / k
	sides := make([]float64, k)
	for i := range sides {
		sides[i] = 0.12
	}
	domain := geom.UnitCube(d)
	boxes := PlaceBoxes(k, sides, domain, rng)
	clusters := make([]Cluster, k)
	for i, b := range boxes {
		clusters[i] = Cluster{Shape: Box{R: b}, Size: size}
	}
	return Generate(clusters, domain, noiseFrac, rng)
}

// VariedClusters builds k box clusters whose densities span the given
// ratio (densest / sparsest ≈ ratio) with sizes spanning sizeRatio, in the
// unit cube of dimension d, totalling approximately total points. This is
// the Fig. 4 workload ("10 clusters of different densities") when ratio is
// moderate, and the Fig. 5 workload ("the density of the clusters varies
// by a factor of 10", with some clusters both small and sparse) when
// ratio = 10.
func VariedClusters(k, d, total int, ratio, sizeRatio, noiseFrac float64, rng *stats.RNG) *Labeled {
	return VariedClustersSide(k, d, total, ratio, sizeRatio, noiseFrac, 0.2, rng)
}

// VariedClustersSide is VariedClusters with an explicit side length for
// the largest (densest) cluster's box. Smaller sides give denser clusters
// relative to any added noise — the §4.1 noise experiments use compact
// clusters whose interior density dwarfs the uniform background.
func VariedClustersSide(k, d, total int, ratio, sizeRatio, noiseFrac, baseSide float64, rng *stats.RNG) *Labeled {
	if k < 2 {
		panic("synth: VariedClusters needs k >= 2")
	}
	// Geometric interpolation of sizes between s_max and s_max/sizeRatio.
	rawSizes := make([]float64, k)
	var sum float64
	for i := range rawSizes {
		frac := float64(i) / float64(k-1)
		rawSizes[i] = math.Pow(sizeRatio, -frac)
		sum += rawSizes[i]
	}
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = int(float64(total) * rawSizes[i] / sum)
		if sizes[i] < 10 {
			sizes[i] = 10
		}
	}
	// Densities geometrically spanning `ratio`, densest first: large
	// clusters are dense, small clusters sparse — the Fig. 5 regime where
	// a < 0 rescues the small sparse clusters. Sizes must shrink faster
	// than densities (sizeRatio > ratio) or all boxes would share one
	// side length and could not be packed without overlap.
	sides := make([]float64, k)
	baseDensity := float64(sizes[0]) / math.Pow(baseSide, float64(d))
	for i := range sides {
		frac := float64(i) / float64(k-1)
		density := baseDensity * math.Pow(ratio, -frac)
		sides[i] = sideForDensity(sizes[i], density, d)
	}
	domain := geom.UnitCube(d)
	boxes := PlaceBoxes(k, sides, domain, rng)
	clusters := make([]Cluster, k)
	for i, b := range boxes {
		clusters[i] = Cluster{Shape: Box{R: b}, Size: sizes[i]}
	}
	return Generate(clusters, domain, noiseFrac, rng)
}
