package dataset

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// Appendable is a Dataset that grows in place and tracks its growth as
// numbered generations: generation 0 is the contents at creation and each
// Append advances the generation by one. The generation number, the
// per-generation lengths, and the per-generation fingerprints let callers
// pin a consistent prefix of a growing dataset (GenView) and key caches by
// exact content (GenFingerprint) while appends continue underneath.
type Appendable interface {
	Dataset

	// Append adds points as a new generation. Implementations must make
	// the append atomic with respect to concurrent scans: an in-flight
	// pass sees either the old or the new contents in full, never a torn
	// intermediate state.
	Append(pts ...geom.Point) error

	// Generation returns the current generation number (0 at creation).
	Generation() uint64

	// GenLen returns the dataset length as of generation g. It panics
	// when g exceeds the current generation.
	GenLen(g uint64) int

	// GenFingerprint returns the content fingerprint of the dataset as of
	// generation g — identical to Fingerprint over the same prefix. The
	// digest state is memoized, so after the first computation each new
	// generation costs one pass over its delta only.
	GenFingerprint(g uint64, parallelism int) (uint64, error)
}

// Interface conformance, checked at compile time.
var (
	_ Appendable = (*InMemory)(nil)
	_ Appendable = (*SegmentFile)(nil)
	_ Sliceable  = (*InMemory)(nil)
	_ Sliceable  = (*SegmentFile)(nil)
	_ Sliceable  = (*sliceWindow)(nil)

	_ PinnedSliceable = (*SegmentFile)(nil)
)

// Sliceable is implemented by datasets whose current points are resident
// in one contiguous slice. Block scans use it for zero-copy blocks and the
// exact sampler uses it to decide whether a density cache is affordable.
// Points must return a stable snapshot: a concurrent append may grow the
// dataset but never mutate or shrink a previously returned slice.
type Sliceable interface {
	Points() []geom.Point
}

// Resident reports whether every row of ds is in memory: ds is Sliceable
// and its snapshot covers its length. Only then does the exact sampler
// keep 8 bytes a row beside the rows (its weights, or a server's stored
// densities), which is small next to the resident points themselves.
func Resident(ds Dataset) bool {
	sl, ok := ds.(Sliceable)
	return ok && len(sl.Points()) >= ds.Len()
}

// PinnedSliceable is implemented by Sliceable datasets whose backing
// storage can be released out from under a snapshot (memory-mapped files:
// Close unmaps). PinPoints returns the current snapshot with a pin held —
// the implementation defers releasing the underlying storage until every
// pin is dropped — so a window view outlives a concurrent Close safely
// instead of faulting on unmapped memory. A nil pts return means the
// resident fast path is unavailable (closed, or never mapped) and no pin
// is held. release must be safe to call more than once; callers that take
// a pin must arrange for it to be released (Window attaches it to the
// view's lifetime).
type PinnedSliceable interface {
	Sliceable
	PinPoints() (pts []geom.Point, release func())
}

// window is a frozen read-only view of the half-open index range
// [start, end) of a dataset. Passes over the window are charged to the
// parent dataset (the view adds no storage of its own), and Passes
// reports the parent's counter.
type window struct {
	src        Dataset
	start, end int
}

// sliceWindow is a window over a Sliceable parent: it pins the parent's
// backing slice at construction so block scans stay zero-copy. Over a
// PinnedSliceable parent it additionally holds a storage pin — released
// when the view is garbage collected — so the pinned rows stay mapped even
// if the parent is closed while the view is live.
type sliceWindow struct {
	window
	pts []geom.Point
}

// Points implements Sliceable over the pinned backing range.
func (w *sliceWindow) Points() []geom.Point { return w.pts }

// ScanRange implements Dataset over the pinned rows directly rather than
// delegating to the parent: the pin guarantees the memory stays valid
// after the parent closes, while a delegated read would fail with
// ErrClosed.
func (w *sliceWindow) ScanRange(start, end int, fn func(p geom.Point) error) error {
	if err := checkRange(start, end, len(w.pts)); err != nil {
		return err
	}
	return eachPoint(w.pts[start:end], fn)
}

// Window returns a read-only Dataset view of the half-open range
// [start, end) of ds. The view is frozen: if ds grows afterwards the view
// still covers exactly the rows it was created over. Views compose (a
// window of a window re-offsets), and a view over a Sliceable parent is
// itself Sliceable, keeping the zero-copy block-scan fast path.
func Window(ds Dataset, start, end int) (Dataset, error) {
	if err := checkRange(start, end, ds.Len()); err != nil {
		return nil, err
	}
	w := window{src: ds, start: start, end: end}
	if ps, ok := ds.(PinnedSliceable); ok {
		// Take a storage pin with the snapshot so the view stays readable
		// even if the parent is closed underneath it; the pin is released
		// when the view is collected.
		if pts, release := ps.PinPoints(); len(pts) >= end {
			sw := &sliceWindow{window: w, pts: pts[start:end]}
			if release != nil {
				runtime.SetFinalizer(sw, func(*sliceWindow) { release() })
			}
			return sw, nil
		} else if release != nil {
			release()
		}
	} else if sl, ok := ds.(Sliceable); ok {
		// Only pin when the snapshot actually covers the range: a Sliceable
		// whose mapping is unavailable (SegmentFile fallback) returns nil
		// or a short slice and must keep the range-scanning view.
		if pts := sl.Points(); len(pts) >= end {
			return &sliceWindow{window: w, pts: pts[start:end]}, nil
		}
	}
	return &w, nil
}

// Len implements Dataset.
func (w *window) Len() int { return w.end - w.start }

// Dims implements Dataset.
func (w *window) Dims() int { return w.src.Dims() }

// Passes implements Dataset, reporting the parent's counter: the window
// shares the parent's storage, so its passes are passes over the parent.
func (w *window) Passes() int { return w.src.Passes() }

// AddPass implements Dataset, charging the parent.
func (w *window) AddPass() { w.src.AddPass() }

// ScanRange implements Dataset, re-offset into the parent.
func (w *window) ScanRange(start, end int, fn func(p geom.Point) error) error {
	if err := checkRange(start, end, w.end-w.start); err != nil {
		return err
	}
	return w.src.ScanRange(w.start+start, w.start+end, fn)
}

// GenView returns a frozen view of a at generation g: exactly the points
// the dataset held when generation g was current, regardless of appends
// since. The serving layer pins every request to the generation it
// admitted, so a request's passes are consistent even while the dataset
// grows.
func GenView(a Appendable, g uint64) (Dataset, error) {
	if g > a.Generation() {
		return nil, fmt.Errorf("dataset: generation %d beyond current %d", g, a.Generation())
	}
	return Window(a, 0, a.GenLen(g))
}

// DeltaView returns the points generation g added (g ≥ 1): the range
// [GenLen(g-1), GenLen(g)). Delta builds scan it instead of the full
// dataset.
func DeltaView(a Appendable, g uint64) (Dataset, error) {
	if g == 0 {
		return nil, errors.New("dataset: generation 0 has no delta")
	}
	if g > a.Generation() {
		return nil, fmt.Errorf("dataset: generation %d beyond current %d", g, a.Generation())
	}
	return Window(a, a.GenLen(g-1), a.GenLen(g))
}

// fpMemo incrementally maintains the blocked-FNV digest state behind
// Fingerprint so each generation's fingerprint is computed from the prior
// state plus the delta rows alone. The per-block digests use the global
// block layout (parallel.DefaultBlockSize); the last digest may cover a
// partial block, and because FNV-1a is resumable within a block, the next
// advance continues it where it stopped instead of re-reading the tail.
// Fingerprint is one advance of a fresh fpMemo over the whole dataset, so
// the finalized value is bit-identical to Fingerprint over the same
// prefix — content-addressed, so a dataset re-registered whole and one
// grown to the same contents by appends share cache keys.
type fpMemo struct {
	mu    sync.Mutex
	fps   []uint64 // finalized fingerprint per generation
	sums  []uint64 // per-block FNV digests; last entry may be partial
	count int      // rows folded into sums so far
}

// at returns the fingerprint of a at generation g, advancing and
// memoizing the digest state as needed. Each advance consumes one pass
// over the not-yet-digested rows only.
func (m *fpMemo) at(a Appendable, g uint64, parallelism int) (uint64, error) {
	if g > a.Generation() {
		return 0, fmt.Errorf("dataset: generation %d beyond current %d", g, a.Generation())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for uint64(len(m.fps)) <= g {
		j := uint64(len(m.fps))
		target := a.GenLen(j)
		if err := m.advance(a, target, parallelism); err != nil {
			return 0, err
		}
		m.fps = append(m.fps, finalizeFingerprint(a.Dims(), target, m.sums))
	}
	return m.fps[g], nil
}

// advance folds rows [m.count, target) of ds into the digest state, one
// pass per window it digests. FNV-1a cannot resume mid-stream across
// concurrent blocks, so each block digests its own rows into its own
// slot and the slots chain in block order: this blocked construction is
// what makes the parallel scan exact. A window starts where the digest
// stopped and runs to target, or, when that is inside a block, only to
// the block's boundary: that window's one block resumes the partial
// digest. A window starting on a boundary has the global blocks as its
// own, so they are digested in parallel. The state changes only once a
// window's scan has succeeded.
func (m *fpMemo) advance(ds Dataset, target, parallelism int) error {
	rowSize := 8 * ds.Dims()
	blockSize := parallel.BlockSize(0)
	for m.count < target {
		first := m.count / blockSize
		end := target
		if m.count%blockSize != 0 {
			end = min(target, (first+1)*blockSize)
		}
		w, err := Window(ds, m.count, end)
		if err != nil {
			return err
		}
		resumed := m.sums[first:] // the partial block's digest, if any
		sums := make([]uint64, parallel.NumBlocks(end-m.count, blockSize))
		err = ScanBlocks(w, ScanConfig{Parallelism: parallelism}, func(block, _ int, pts []geom.Point) error {
			h := uint64(fnvOffset64)
			if block < len(resumed) {
				h = resumed[block]
			}
			sums[block] = digestRows(h, pts, make([]byte, rowSize))
			return nil
		})
		if err != nil {
			return err
		}
		m.sums = append(m.sums[:first], sums...)
		m.count = end
	}
	return nil
}
