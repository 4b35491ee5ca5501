package outlier

import (
	"repro/internal/geom"
	"repro/internal/parallel"
)

// NestedLoop finds all DB(p,k) outliers by the quadratic nested-loop
// algorithm of Knorr & Ng with early termination: a point is disqualified
// as soon as p+1 neighbours are seen. The self-distance does not count.
// Returns the indices of the outliers in input order. It is the oracle the
// indexed and approximate detectors are checked against.
func NestedLoop(pts []geom.Point, prm Params) ([]int, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	// Each point's verdict is independent, so the rows parallelize into a
	// flag slice; collecting set flags in index order preserves the serial
	// output exactly.
	flags := make([]bool, len(pts))
	err := parallel.DoCtxObs(prm.Ctx, len(pts), prm.Parallelism, prm.Obs, func(i int) error {
		p := pts[i]
		count := 0
		flags[i] = true
		for j, q := range pts {
			if i == j {
				continue
			}
			if geom.Distance(p, q) <= prm.K {
				count++
				if count > prm.P {
					flags[i] = false
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return collect(flags), nil
}
