package synth

import (
	"repro/internal/geom"
	"repro/internal/stats"
)

// DS1 is a lookalike of "dataset1" from the CURE paper used in Fig. 3: five
// 2-D clusters of contrasting shape, size and density — one large disc, two
// elongated parallel ellipses, and two small dense discs — plus noiseFrac
// uniform background noise, totalling about total·(1+noiseFrac) points.
// The large cluster has the most points but moderate density; the small
// discs are dense; the ellipses are elongated. With substantial noise,
// ~1000-point uniform samples fail to separate all five clusters while
// dense-biased samples of the same size succeed (Fig. 3's contrast).
func DS1(total int, noiseFrac float64, rng *stats.RNG) *Labeled {
	clusters := []Cluster{
		{Shape: Ball{Center: geom.Point{0.30, 0.35}, Radius: 0.22}, Size: total * 52 / 100},
		{Shape: Ellipsoid{Center: geom.Point{0.62, 0.81}, Radii: geom.Point{0.23, 0.04}}, Size: total * 19 / 100},
		{Shape: Ellipsoid{Center: geom.Point{0.62, 0.58}, Radii: geom.Point{0.23, 0.04}}, Size: total * 19 / 100},
		{Shape: Ball{Center: geom.Point{0.82, 0.28}, Radius: 0.030}, Size: total * 4 / 100},
		{Shape: Ball{Center: geom.Point{0.93, 0.15}, Radius: 0.04}, Size: total * 6 / 100},
	}
	return Generate(clusters, geom.UnitCube(2), noiseFrac, rng)
}

// DS2 is the Fig. 7 second workload: ten 2-D clusters with very different
// sizes (20:1 spread) and densities, plus 20 % noise.
func DS2(total int, rng *stats.RNG) *Labeled {
	l := VariedClusters(10, 2, total, 10, 20, 0.20, rng)
	return l
}

// NorthEast is the substitute for the paper's NorthEast postal-address
// dataset (130 000 2-D points): three dense Gaussian metropolitan areas
// with population weights resembling New York, Philadelphia and Boston,
// over a widely distributed rural background of small towns plus uniform
// scatter. The paper's finding — biased sampling (a=1) isolates the three
// metro clusters while uniform sampling drowns them in rural "noise" —
// depends only on this density structure. See DESIGN.md §3.
func NorthEast(rng *stats.RNG) *Labeled {
	const total = 130000
	metros := []Cluster{
		// New York — largest
		{Shape: GaussianShape{Center: geom.Point{0.44, 0.40}, Sigma: 0.022}, Size: total * 22 / 100},
		// Philadelphia
		{Shape: GaussianShape{Center: geom.Point{0.33, 0.30}, Sigma: 0.018}, Size: total * 9 / 100},
		// Boston
		{Shape: GaussianShape{Center: geom.Point{0.66, 0.62}, Sigma: 0.018}, Size: total * 9 / 100},
	}
	clusters := metros
	// Rural background: many small towns (tiny gaussians) spread over the
	// region. They are ground-truth "noise" for the metro-detection task,
	// so they are generated as unlabeled points below via a composite pass.
	townPts := make([]geom.Point, 0, total*45/100)
	nTowns := 600
	townSize := (total * 45 / 100) / nTowns
	for t := 0; t < nTowns; t++ {
		c := geom.Point{rng.Float64(), rng.Float64()}
		g := GaussianShape{Center: c, Sigma: 0.004}
		for i := 0; i < townSize; i++ {
			townPts = append(townPts, g.Sample(rng))
		}
	}
	l := Generate(clusters, geom.UnitCube(2), 0, rng)
	// Append towns and uniform scatter as noise-labelled points.
	uniformScatter := total - len(l.Points) - len(townPts)
	box := Box{R: geom.UnitCube(2)}
	for _, p := range townPts {
		l.Points = append(l.Points, p)
		l.Labels = append(l.Labels, LabelNoise)
	}
	for i := 0; i < uniformScatter; i++ {
		l.Points = append(l.Points, box.Sample(rng))
		l.Labels = append(l.Labels, LabelNoise)
	}
	rng.Shuffle(len(l.Points), func(i, j int) {
		l.Points[i], l.Points[j] = l.Points[j], l.Points[i]
		l.Labels[i], l.Labels[j] = l.Labels[j], l.Labels[i]
	})
	return l
}

// California is the substitute for the paper's California postal-address
// dataset (62 553 2-D points): an elongated coastal ribbon of metro
// clusters (LA, SF bay, SD) plus a central-valley ribbon and sparse desert
// scatter.
func California(rng *stats.RNG) *Labeled {
	const total = 62553
	clusters := []Cluster{
		// Los Angeles basin — elongated, largest
		{Shape: Ellipsoid{Center: geom.Point{0.62, 0.25}, Radii: geom.Point{0.10, 0.045}}, Size: total * 26 / 100},
		// SF bay area — two lobes approximated as one ellipse
		{Shape: Ellipsoid{Center: geom.Point{0.26, 0.60}, Radii: geom.Point{0.05, 0.08}}, Size: total * 16 / 100},
		// San Diego
		{Shape: GaussianShape{Center: geom.Point{0.72, 0.12}, Sigma: 0.02}, Size: total * 8 / 100},
		// Central valley ribbon — long, moderate density
		{Shape: Ellipsoid{Center: geom.Point{0.45, 0.48}, Radii: geom.Point{0.06, 0.26}}, Size: total * 18 / 100},
	}
	l := Generate(clusters, geom.UnitCube(2), 0, rng)
	// Desert/rural scatter.
	scatter := total - len(l.Points)
	box := Box{R: geom.UnitCube(2)}
	for i := 0; i < scatter; i++ {
		l.Points = append(l.Points, box.Sample(rng))
		l.Labels = append(l.Labels, LabelNoise)
	}
	rng.Shuffle(len(l.Points), func(i, j int) {
		l.Points[i], l.Points[j] = l.Points[j], l.Points[i]
		l.Labels[i], l.Labels[j] = l.Labels[j], l.Labels[i]
	})
	return l
}

// ForestCover is the substitute for the UCI Forest Cover dataset (59 000
// points, moderate dimension): seven overlapping Gaussian cover-type
// clusters in 10 dimensions with unbalanced sizes, scaled into the unit
// cube. It exercises the same code path — clustering real-valued,
// moderate-dimensional data with skewed class sizes.
func ForestCover(rng *stats.RNG) *Labeled {
	const total, d = 59000, 10
	weights := []int{36, 29, 12, 9, 6, 5, 3} // percent, skewed like cover types
	clusters := make([]Cluster, len(weights))
	for i, w := range weights {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = 0.15 + 0.7*rng.Float64()
		}
		clusters[i] = Cluster{
			Shape: GaussianShape{Center: c, Sigma: 0.03 + 0.02*rng.Float64()},
			Size:  total * w / 100,
		}
	}
	return Generate(clusters, geom.UnitCube(d), 0.02, rng)
}

// PlantOutliers appends m isolated points to l, each at least minGap away
// from every cluster's bounds and from each other, labelled LabelOutlier.
// These are unambiguous DB(p,k) outliers for the §3.2 experiments.
func PlantOutliers(l *Labeled, m int, minGap float64, rng *stats.RNG) {
	d := l.Domain.Dims()
	planted := make([]geom.Point, 0, m)
	for len(planted) < m {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = l.Domain.Min[j] + rng.Float64()*l.Domain.Side(j)
		}
		ok := true
		for _, c := range l.Clusters {
			if c.Shape.Bounds().MinDist(p) < minGap {
				ok = false
				break
			}
		}
		if ok {
			for _, q := range planted {
				if geom.Distance(p, q) < minGap {
					ok = false
					break
				}
			}
		}
		if ok {
			planted = append(planted, p)
		}
	}
	for _, p := range planted {
		l.Points = append(l.Points, p)
		l.Labels = append(l.Labels, LabelOutlier)
	}
}
