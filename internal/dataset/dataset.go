// Package dataset defines the dataset abstraction the sampling and mining
// algorithms operate on. The paper's efficiency claims are stated in terms
// of sequential passes over a large dataset ("requires one or two additional
// passes", §1). A Dataset therefore has one read method, ScanRange, and
// every pass goes through one of two functions that charge it: Scan, one
// sequential pass, and ScanBlocks, one pass as parallel blocks. Every
// implementation counts the passes charged so tests and benchmarks can
// assert the exact pass budget of each algorithm.
//
// The package also provides the two uniform sampling primitives the paper
// builds on: Bernoulli (sequential coin-flip) sampling, which is what §4.2
// describes for the uniform baseline, and Vitter's reservoir sampling
// (Algorithm R), which the kernel density estimator uses to pick kernel
// centers in a single pass without knowing the dataset size in advance.
package dataset

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// ErrStopScan may be returned by a read callback to end the read early
// without reporting an error to the caller.
var ErrStopScan = errors.New("dataset: stop scan")

// Dataset is a finite multiset of d-dimensional points in a deterministic
// order. Implementations must allow any number of reads.
type Dataset interface {
	// ScanRange invokes fn for every point of the index range
	// [start, end), in index order. The Point passed to fn is only valid
	// for the duration of the call; callbacks that retain points must
	// Clone them. If fn returns ErrStopScan the read ends early and
	// ScanRange returns nil; any other error aborts the read and is
	// returned verbatim. ScanRange must be safe for concurrent use —
	// each call owns its own cursor (a slice index, a private file
	// handle) — which is what lets a block scan read many ranges of one
	// dataset at once. It charges no pass: Scan and ScanBlocks charge
	// the one pass of the read they orchestrate.
	ScanRange(start, end int, fn func(p geom.Point) error) error

	// Len returns the number of points.
	Len() int

	// Dims returns the dimensionality of the points.
	Dims() int

	// Passes returns how many passes have been charged since creation
	// (early-stopped passes count as one).
	Passes() int

	// AddPass charges one logical pass.
	AddPass()
}

// Scan performs one sequential pass over ds: it charges the pass, then
// reads every point in order with ds.ScanRange, whose contract fn follows.
func Scan(ds Dataset, fn func(p geom.Point) error) error {
	ds.AddPass()
	return ds.ScanRange(0, ds.Len(), fn)
}

// InMemory is a Dataset backed by a point slice. The pass counter is
// atomic, so concurrent scans of one shared InMemory (the serving layer
// runs many requests over one registered dataset) are safe.
//
// InMemory is generational: Append publishes a new immutable snapshot of
// (points, per-generation counts) through an atomic pointer, so scans that
// started before an append keep reading the exact prefix they saw at
// their start while new scans observe the grown dataset. Appends are
// serialized against each other but never block readers.
type InMemory struct {
	dims   int
	passes atomic.Int64

	mu    sync.Mutex // serializes Append; readers never take it
	state atomic.Pointer[memState]

	fp fpMemo // incremental per-generation fingerprints
}

// memState is one immutable snapshot of an InMemory's contents. counts[g]
// is the number of points visible at generation g; the points of
// generation g are pts[:counts[g]].
type memState struct {
	pts    []geom.Point
	counts []int
}

// NewInMemory wraps pts as a Dataset. The slice is retained, not copied;
// callers must not mutate it afterwards. All points must share one
// dimensionality.
func NewInMemory(pts []geom.Point) (*InMemory, error) {
	if len(pts) == 0 {
		return nil, errors.New("dataset: empty point set")
	}
	d := pts[0].Dims()
	if err := checkPoints(pts, d); err != nil {
		return nil, err
	}
	m := &InMemory{dims: d}
	m.state.Store(&memState{pts: pts, counts: []int{len(pts)}})
	return m, nil
}

// checkPoints validates dimensionality and finiteness of a point batch.
func checkPoints(pts []geom.Point, dims int) error {
	for i, p := range pts {
		if p.Dims() != dims {
			return fmt.Errorf("dataset: point %d has %d dims, want %d", i, p.Dims(), dims)
		}
		if !p.IsFinite() {
			return fmt.Errorf("dataset: point %d has non-finite coordinates", i)
		}
	}
	return nil
}

// MustInMemory is NewInMemory that panics on error, for tests and generators
// whose input is known to be well formed.
func MustInMemory(pts []geom.Point) *InMemory {
	ds, err := NewInMemory(pts)
	if err != nil {
		panic(err)
	}
	return ds
}

// ScanRange implements Dataset over the backing slice. The range is
// resolved against the snapshot current at call time; a concurrent Append
// never changes the points it delivers.
func (m *InMemory) ScanRange(start, end int, fn func(p geom.Point) error) error {
	pts := m.Points()
	if err := checkRange(start, end, len(pts)); err != nil {
		return err
	}
	return eachPoint(pts[start:end], fn)
}

// Len implements Dataset.
func (m *InMemory) Len() int {
	st := m.state.Load()
	return st.counts[len(st.counts)-1]
}

// Dims implements Dataset.
func (m *InMemory) Dims() int { return m.dims }

// Passes implements Dataset.
func (m *InMemory) Passes() int { return int(m.passes.Load()) }

// AddPass implements Dataset.
func (m *InMemory) AddPass() { m.passes.Add(1) }

// Points exposes the backing slice for algorithms that have already paid
// for materialization (e.g. clustering a sample). Callers must not mutate.
// The slice is the snapshot at call time; a later Append grows the dataset
// but never the returned slice.
func (m *InMemory) Points() []geom.Point {
	st := m.state.Load()
	return st.pts[:st.counts[len(st.counts)-1]]
}

// Append adds points as a new generation. Every appended point must match
// the dataset's dimensionality and be finite; on error nothing is
// appended. Safe concurrently with scans: in-flight passes keep the
// snapshot they started with, later ones see the grown dataset. Appended
// points are retained, not copied; callers must not mutate them after.
func (m *InMemory) Append(pts ...geom.Point) error {
	if len(pts) == 0 {
		return errors.New("dataset: empty append")
	}
	if err := checkPoints(pts, m.dims); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	n := old.counts[len(old.counts)-1]
	// Growing the backing array is safe even when it extends in place:
	// readers of older snapshots never look past their own count.
	merged := append(old.pts[:n], pts...)
	counts := make([]int, len(old.counts)+1)
	copy(counts, old.counts)
	counts[len(old.counts)] = n + len(pts)
	m.state.Store(&memState{pts: merged, counts: counts})
	return nil
}

// Generation implements Appendable: generations count from 0 (creation),
// +1 per Append.
func (m *InMemory) Generation() uint64 {
	return uint64(len(m.state.Load().counts) - 1)
}

// GenLen implements Appendable: the dataset length at generation g.
// It panics when g exceeds the current generation.
func (m *InMemory) GenLen(g uint64) int {
	counts := m.state.Load().counts
	if g >= uint64(len(counts)) {
		panic(fmt.Sprintf("dataset: generation %d beyond current %d", g, len(counts)-1))
	}
	return counts[g]
}

// GenFingerprint implements Appendable: the content fingerprint of the
// dataset as of generation g. The first call pays one pass over the data
// up to g; each later generation extends the memoized digest state with
// only the delta's rows, so fingerprinting after an append costs
// O(|delta|), not O(n). The value equals Fingerprint over the same prefix
// exactly.
func (m *InMemory) GenFingerprint(g uint64, parallelism int) (uint64, error) {
	return m.fp.at(m, g, parallelism)
}

// Collect materializes any Dataset into memory with one pass.
func Collect(ds Dataset) (*InMemory, error) {
	pts := make([]geom.Point, 0, ds.Len())
	err := Scan(ds, func(p geom.Point) error {
		pts = append(pts, p.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NewInMemory(pts)
}

// Bounds computes the bounding rectangle of the dataset in one pass.
func Bounds(ds Dataset) (geom.Rect, error) {
	var r geom.Rect
	first := true
	err := Scan(ds, func(p geom.Point) error {
		if first {
			r = geom.Rect{Min: p.Clone(), Max: p.Clone()}
			first = false
			return nil
		}
		r.Extend(p)
		return nil
	})
	if err != nil {
		return geom.Rect{}, err
	}
	if first {
		return geom.Rect{}, errors.New("dataset: Bounds of empty dataset")
	}
	return r, nil
}
