// Package obs is the pipeline-wide observability layer: hierarchical span
// timers, named atomic counters and gauges, and the reports built from them
// (a human-readable tree, a JSON dump, and Prometheus text exposition).
// It is also the serving path's request tracing: a Recorder made with
// NewTraced also logs one request's span occurrences for /debug/traces
// and the access log (spanlog.go), from the same Span.End that feeds the
// aggregate tree.
//
// The package is deliberately stdlib-only and a dependency leaf: every
// other package in the repository may import it, and nothing here imports
// back. A *Recorder is threaded through the pipeline via each stage's
// Options (or, for callers that hold only a context, via NewContext and
// FromContext); a nil *Recorder disables all recording — every method has a
// nil-receiver fast path, and hot loops are written to fetch counter
// handles once per stage and flush block-local tallies through them, so
// the disabled cost on the per-point paths is zero (see DESIGN.md,
// "Observability": the overhead budget and the benchmark guard in
// verify.sh).
//
// Recording never feeds back into the computation: no RNG is consulted, no
// result depends on a counter or a clock, so for a fixed seed the sampling
// and clustering outputs are bit-identical with observability on or off,
// traced or not, at every worker count (asserted by tests in internal/core,
// internal/cure and internal/server).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical counter names. Stages share this catalogue so reports from
// different tools line up; all are monotonic within one Recorder's life.
const (
	CtrPointsScanned  = "points_scanned_total"        // points delivered by block scans
	CtrDataPasses     = "data_passes_total"           // logical dataset passes started
	CtrCoinFlips      = "coin_flips_total"            // Bernoulli inclusion draws (core.Draw)
	CtrSaturated      = "sample_saturated_total"      // inclusion probabilities clipped at 1
	CtrSampled        = "sample_points_total"         // points drawn into the sample
	CtrKernelEvals    = "kde_kernel_evals_total"      // candidate kernel evaluations (DensityBatch)
	CtrKDNodesVisited = "kdtree_nodes_visited_total"  // kd-tree nodes popped during pruned traversals
	CtrKDNodesPruned  = "kdtree_nodes_pruned_total"   // far subtrees skipped by the prune test
	CtrPoolRuns       = "pool_runs_total"             // parallel.Do invocations
	CtrPoolRunsInline = "pool_runs_inline_total"      // ... that ran inline (serial path)
	CtrPoolTasks      = "pool_tasks_total"            // tasks (blocks/rows) scheduled
	CtrPoolWorkers    = "pool_workers_total"          // worker goroutines spawned
	CtrCureMerges     = "cure_merges_total"           // cluster merges performed
	CtrCureDistEvals  = "cure_dist_evals_total"       // pairwise distance evals (means + rep pairs)
	CtrCureTrimmed    = "cure_clusters_trimmed_total" // clusters dropped by noise trims
	CtrOutlierCands   = "outlier_candidates_total"    // candidates kept for exact verification
	CtrOutlierPruned  = "outlier_points_pruned_total" // points the density estimate ruled out
	CtrOutlierFound   = "outlier_found_total"         // verified outliers reported
	CtrRetries        = "stage_retries_total"         // transient-failure retries of pipeline stages
	CtrFaultsInjected = "faults_injected_total"       // faults the injector fired (tests/chaos only)
	CtrAppends        = "dataset_appends_total"       // dataset append operations accepted
	CtrAppendPoints   = "dataset_append_points_total" // points added by appends
	CtrKDEExtends     = "kde_extends_total"           // estimators built by extending a prior one
	CtrIncDraws       = "sample_incremental_total"    // samples drawn incrementally (core.ExtendDraw)
)

// Canonical gauge names (last-written-wins values).
const (
	GaugeSampleNorm       = "sample_norm"           // normalizer k_a of the last draw
	GaugeSampleDataPasses = "sample_data_passes"    // dataset passes the last draw consumed
	GaugeNormRelError     = "sample_norm_rel_error" // |approx-exact|/exact (OnePass + VerifyNorm)
)

// Counter is a named monotonic counter. The only way to obtain one is
// Recorder.Counter; a nil *Counter (from a nil Recorder) is a valid no-op
// handle, which is what lets hot paths hold a handle unconditionally.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter. No-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one. No-op on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name ("" on a nil handle).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a named last-written-wins float value.
type Gauge struct {
	name string
	bits atomic.Uint64
	set  atomic.Bool
}

// Set stores v. No-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the stored value (0 on a nil or never-set handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name returns the gauge's registered name ("" on a nil handle).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Recorder collects counters, gauges, and spans for one pipeline run. All
// methods are safe for concurrent use; handles returned by Counter and
// Gauge are shared (two lookups of one name return the same handle). The
// zero value is ready to use, but the nil *Recorder is the canonical
// disabled state: every method on it is a cheap no-op that hands out nil
// handles.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	spans    map[string]*Span
	hists    map[string]*Histogram
	roots    []*Span
	log      *spanLog // per-request occurrence log; nil unless NewTraced
	start    time.Time
	now      func() time.Time // test hook; nil means time.Now
}

// New returns an empty Recorder.
func New() *Recorder {
	r := &Recorder{}
	r.start = r.clock()
	return r
}

func (r *Recorder) clock() time.Time {
	if r != nil && r.now != nil {
		return r.now()
	}
	return time.Now()
}

// Counter returns the shared handle for name, creating it on first use.
// Returns nil (the no-op handle) on a nil Recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the shared handle for name, creating it on first use.
// Returns nil (the no-op handle) on a nil Recorder.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// counterNames returns the registered counter names sorted, for the
// deterministic report orderings.
func (r *Recorder) counterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Recorder) gaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counters returns a point-in-time snapshot of every registered counter.
// Nil and empty Recorders return an empty (nil) map. The serving layer
// uses it to roll a per-request Recorder's tallies up into the
// server-level one.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Merge adds every counter of src into r (gauges and spans are not
// merged: a gauge is a last-written-wins value with no meaningful sum, and
// span trees belong to one run). Nil receivers and nil sources no-op.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	for name, v := range src.Counters() {
		if v != 0 {
			r.Counter(name).Add(v)
		}
	}
}

// PoolRun records one parallel.Do invocation scheduling tasks items over
// workers goroutines (workers ≤ 1 means the inline serial path). It backs
// the worker-pool statistics without the parallel package needing counter
// handles of its own. No-op on a nil Recorder.
func (r *Recorder) PoolRun(tasks, workers int) {
	if r == nil {
		return
	}
	r.Counter(CtrPoolRuns).Inc()
	r.Counter(CtrPoolTasks).Add(int64(tasks))
	if workers <= 1 {
		r.Counter(CtrPoolRunsInline).Inc()
	} else {
		r.Counter(CtrPoolWorkers).Add(int64(workers))
	}
}
