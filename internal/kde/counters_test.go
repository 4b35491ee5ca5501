package kde

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// TestDensityBatchCounterGolden pins the exact traversal counters a
// Recorder receives from DensityBatch on a fixed fixture, one case per
// evaluation branch: the flat slab (d=4 specialization and generic d=3),
// the per-center box path, and the Gaussian ball path.
// The bench reads these counters (kernel evaluations per point, prune
// ratio), so they are part of the observable contract. Densities must be
// identical with the Recorder attached or detached.
func TestDensityBatchCounterGolden(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		dims                   int
		opts                   Options
		evals, visited, pruned int64
	}{
		{"flat-d4", 4, Options{NumKernels: 300}, 161704, 48772, 7919},
		{"flat-d3", 3, Options{NumKernels: 300}, 151608, 45822, 7566},
		{"biweight-d3", 3, Options{NumKernels: 300, Kernel: Biweight{}}, 151608, 45822, 7566},
		{"gaussian-d2", 2, Options{NumKernels: 300, Kernel: Gaussian{}}, 250980, 79157, 3991},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := batchTestData(1500, tc.dims, 11)
			est, err := Build(ds, tc.opts, stats.NewRNG(12))
			if err != nil {
				t.Fatal(err)
			}
			pts := ds.Points()
			plain := make([]float64, len(pts))
			est.DensityBatch(pts, plain)

			rec := obs.New()
			est.SetRecorder(rec)
			counted := make([]float64, len(pts))
			for start := 0; start < len(pts); start += 256 {
				end := min(start+256, len(pts))
				est.DensityBatch(pts[start:end], counted[start:end])
			}
			for i := range plain {
				if plain[i] != counted[i] {
					t.Fatalf("point %d: density %v with a Recorder, %v without", i, counted[i], plain[i])
				}
			}
			got := rec.Counters()
			if got[obs.CtrKernelEvals] != tc.evals || got[obs.CtrKDNodesVisited] != tc.visited || got[obs.CtrKDNodesPruned] != tc.pruned {
				t.Fatalf("counters evals=%d visited=%d pruned=%d, want %d %d %d",
					got[obs.CtrKernelEvals], got[obs.CtrKDNodesVisited], got[obs.CtrKDNodesPruned],
					tc.evals, tc.visited, tc.pruned)
			}
		})
	}
}
