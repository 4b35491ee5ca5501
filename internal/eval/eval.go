// Package eval scores clustering and outlier-detection output against the
// synthetic ground truth, implementing the paper's evaluation criteria
// (§4.3): a true cluster is "found" when at least 90 % of some discovered
// cluster's representative points lie in the interior of that true
// cluster; for BIRCH, which reports centers and radii, a true cluster is
// found when a reported center lies in its interior. The package also
// provides precision/recall for outlier sets.
package eval

import (
	"repro/internal/geom"
	"repro/internal/synth"
)

// DefaultRepFraction is the paper's 90 % representative containment rule.
const DefaultRepFraction = 0.9

// FoundByReps reports, per true cluster, whether any discovered cluster
// "finds" it: at least minFrac of the discovered cluster's representatives
// lie inside that true cluster's shape (and in no other — the dominant
// shape wins). Each discovered cluster can find at most one true cluster.
func FoundByReps(found [][]geom.Point, truth []synth.Cluster, minFrac float64) []bool {
	if minFrac <= 0 {
		minFrac = DefaultRepFraction
	}
	result := make([]bool, len(truth))
	for _, reps := range found {
		if len(reps) == 0 {
			continue
		}
		counts := make([]int, len(truth))
		for _, r := range reps {
			for ti := range truth {
				if truth[ti].Shape.Contains(r) {
					counts[ti]++
					break // shapes are disjoint by construction
				}
			}
		}
		best, bestC := -1, 0
		for ti, c := range counts {
			if c > bestC {
				best, bestC = ti, c
			}
		}
		if best >= 0 && float64(bestC) >= minFrac*float64(len(reps)) {
			result[best] = true
		}
	}
	return result
}

// FoundByCenters reports, per true cluster, whether any reported center
// lies in its interior — the BIRCH criterion of §4.3.
func FoundByCenters(centers []geom.Point, truth []synth.Cluster) []bool {
	result := make([]bool, len(truth))
	for _, c := range centers {
		for ti := range truth {
			if truth[ti].Shape.Contains(c) {
				result[ti] = true
				break
			}
		}
	}
	return result
}

// CountTrue returns the number of true entries — the "number of found
// clusters" y-axis of Figs. 4-7.
func CountTrue(found []bool) int {
	n := 0
	for _, f := range found {
		if f {
			n++
		}
	}
	return n
}

// SetMetrics compares a predicted point set against a truth point set by
// coordinate equality (within tol) and returns precision and recall.
// Empty prediction against empty truth scores 1/1.
func SetMetrics(predicted, truth []geom.Point, tol float64) (precision, recall float64) {
	if len(predicted) == 0 && len(truth) == 0 {
		return 1, 1
	}
	match := func(p geom.Point, set []geom.Point) bool {
		for _, q := range set {
			if geom.Distance(p, q) <= tol {
				return true
			}
		}
		return false
	}
	tp := 0
	for _, p := range predicted {
		if match(p, truth) {
			tp++
		}
	}
	found := 0
	for _, q := range truth {
		if match(q, predicted) {
			found++
		}
	}
	if len(predicted) > 0 {
		precision = float64(tp) / float64(len(predicted))
	} else {
		precision = 1
	}
	if len(truth) > 0 {
		recall = float64(found) / float64(len(truth))
	} else {
		recall = 1
	}
	return precision, recall
}
