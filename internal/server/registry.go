// Package server is the HTTP serving layer over the sampling pipeline: a
// dataset registry of named handles, an LRU artifact cache that lets repeat
// queries skip estimator construction and sampling passes, and an admission
// controller that bounds concurrent work and sheds load. Everything is
// stdlib-only, like the rest of the repository.
//
// The layer adds no randomness and no floating-point work of its own, so
// the serving guarantee mirrors the library's: a response is a function of
// (dataset fingerprint, canonicalized parameters, seed) alone — bit
// identical whether it was computed or served from cache, at any worker
// count (see DESIGN.md, "Serving layer").
package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
)

// ErrNotFound is returned when a request names an unregistered dataset.
var ErrNotFound = errors.New("server: dataset not found")

// ErrExists is returned when a registration reuses a live name.
var ErrExists = errors.New("server: dataset name already registered")

// Registry is the server's table of named datasets. Registration is cheap:
// a path-backed entry stores only the path and is opened (header validated)
// on first Acquire; an uploaded entry wraps the already-materialized
// points. Handles are ref-counted so removal is safe while requests are in
// flight: Remove unregisters the name immediately but the backing dataset
// stays usable until the last holder releases it.
type Registry struct {
	parallelism int

	mu      sync.Mutex
	entries map[string]*regEntry
}

type regEntry struct {
	name string
	path string          // lazy file-backed source; "" when mem is set
	mem  dataset.Dataset // uploaded data, ready to scan

	refs    int  // live Acquires, guarded by Registry.mu
	removed bool // unregistered; dropped when refs reaches 0

	// openMu guards lazy open, the cached fingerprints and the stream
	// state; it is separate from Registry.mu so a slow first open or
	// fingerprint pass never blocks registry operations on other datasets.
	openMu sync.Mutex
	ds     dataset.Dataset
	fp     uint64
	fpDone bool

	// Stream state, which lives and dies with the registration: whether
	// the entry is a stream (fed through the stream append route; only
	// streams get windows), when each generation was appended (duration
	// windows resolve against these watermarks), and the newest window's
	// fingerprint.
	stream   bool
	genTimes map[uint64]time.Time
	winFP    *windowFP
}

// windowFP memoizes the content fingerprint of rows [start, end) of
// generation gen, end being the generation's length.
type windowFP struct {
	gen   uint64
	start int
	fp    uint64
}

// NewRegistry returns an empty registry. parallelism bounds the workers
// used for fingerprint passes (0 = all CPUs).
func NewRegistry(parallelism int) *Registry {
	return &Registry{parallelism: parallelism, entries: make(map[string]*regEntry)}
}

// RegisterPath registers name over a binary dataset file. The file must
// exist, but its header is only read on first Acquire (lazy open).
func (r *Registry) RegisterPath(name, path string) error {
	if err := validName(name); err != nil {
		return err
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("server: dataset %q: %w", name, err)
	}
	return r.add(&regEntry{name: name, path: path})
}

// RegisterDataset registers name over an already-materialized dataset
// (an upload).
func (r *Registry) RegisterDataset(name string, ds dataset.Dataset) error {
	return r.register(&regEntry{name: name, mem: ds, ds: ds})
}

// RegisterStream registers name over ds as the first batch of a stream,
// appended at now: requests over it compute over its sliding window.
func (r *Registry) RegisterStream(name string, ds dataset.Dataset, now time.Time) error {
	return r.register(&regEntry{name: name, mem: ds, ds: ds, stream: true, genTimes: map[uint64]time.Time{0: now}})
}

func (r *Registry) register(e *regEntry) error {
	if err := validName(e.name); err != nil {
		return err
	}
	if e.ds == nil || e.ds.Len() == 0 {
		return fmt.Errorf("server: dataset %q: empty", e.name)
	}
	return r.add(e)
}

func validName(name string) error {
	if name == "" {
		return errors.New("server: empty dataset name")
	}
	return nil
}

func (r *Registry) add(e *regEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[e.name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, e.name)
	}
	r.entries[e.name] = e
	return nil
}

// Handle is a ref-counted lease on a registered dataset. Release it when
// the request is done; the dataset and its cached fingerprint stay valid
// for the handle's lifetime even if the name is removed concurrently.
//
// For appendable datasets the handle pins the generation current at
// Acquire: Dataset returns a frozen view of exactly that generation's
// points and Fingerprint the matching content fingerprint, so a request
// admitted before an append computes over — and cache-keys by — a
// consistent snapshot even while the dataset grows underneath it.
type Handle struct {
	r *Registry
	e *regEntry

	ds  dataset.Dataset    // generation-pinned view (or the raw dataset)
	gen uint64             // pinned generation; 0 for non-appendable
	app dataset.Appendable // nil when the dataset cannot grow
	win *handleWindow      // sliding-window restriction, nil when unwindowed
}

// handleWindow restricts a handle's pinned generation to the index range
// [start, end): the view the compute paths scan and the fingerprint they
// cache-key by both cover exactly the window's rows. The fingerprint is
// content-addressed (dataset.Fingerprint over the window view), so a
// windowed sample shares cache keys — and response bytes — with the same
// points registered as a fresh dataset.
type handleWindow struct {
	start, end int
}

// Acquire resolves name, lazily opening path-backed entries, and returns a
// leased handle pinned to the dataset's current generation.
func (r *Registry) Acquire(name string) (*Handle, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok || e.removed {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.refs++
	r.mu.Unlock()

	e.openMu.Lock()
	if e.ds == nil {
		// Open sniffs the magic, so a path registration may point at
		// either the immutable DBS1 format or the appendable DBS2 one.
		ds, err := dataset.Open(e.path)
		if err != nil {
			e.openMu.Unlock()
			r.release(e)
			return nil, err
		}
		e.ds = ds
	}
	e.openMu.Unlock()

	h := &Handle{r: r, e: e, ds: e.ds}
	if app, ok := e.ds.(dataset.Appendable); ok {
		gen := app.Generation()
		view, err := dataset.GenView(app, gen)
		if err == nil {
			h.ds, h.gen, h.app = view, gen, app
		}
	}
	return h, nil
}

// Dataset returns the leased dataset: for appendable datasets a frozen
// view of the generation pinned at Acquire.
func (h *Handle) Dataset() dataset.Dataset { return h.ds }

// Appendable returns the underlying growable dataset, or nil when the
// leased dataset cannot grow.
func (h *Handle) Appendable() dataset.Appendable { return h.app }

// Generation returns the generation pinned at Acquire (0 for
// non-appendable datasets).
func (h *Handle) Generation() uint64 { return h.gen }

// GenLen returns the dataset length at generation g ≤ the pinned one.
func (h *Handle) GenLen(g uint64) int {
	if h.app == nil {
		return h.ds.Len()
	}
	return h.app.GenLen(g)
}

// MarkAppend watermarks generation g with the time it was appended. With
// stream set (the stream append route) it makes the entry a stream;
// otherwise only an entry that already is one records it, so a stream
// kept fresh through either append route ages correctly.
func (h *Handle) MarkAppend(g uint64, now time.Time, stream bool) {
	e := h.e
	e.openMu.Lock()
	defer e.openMu.Unlock()
	if !stream && !e.stream {
		return
	}
	if e.genTimes == nil {
		e.genTimes = make(map[uint64]time.Time)
	}
	e.stream = true
	e.genTimes[g] = now
}

// WindowStart resolves where generation g's sliding window starts: 0
// (the whole generation) unless the handle leases a stream. points > 0
// keeps the newest points rows; a non-zero cutoff then drops every
// generation appended before it — generation-granular, and the newest
// generation is always kept, even when stale. Generations with no
// watermark (appended before this server started, or before the dataset
// became a stream) count as stale. The tighter bound wins.
func (h *Handle) WindowStart(g uint64, points int, cutoff time.Time) int {
	if h.app == nil || (points <= 0 && cutoff.IsZero()) {
		return 0
	}
	e := h.e
	e.openMu.Lock()
	defer e.openMu.Unlock()
	if !e.stream {
		return 0
	}
	start := 0
	if end := h.GenLen(g); points > 0 && end > points {
		start = end - points
	}
	if cutoff.IsZero() {
		return start
	}
	first := g // everything stale: the newest generation only
	for j := uint64(0); j < g; j++ {
		if t, ok := e.genTimes[j]; ok && !t.Before(cutoff) {
			first = j
			break
		}
	}
	if first > 0 {
		start = max(start, h.GenLen(first-1))
	}
	return start
}

// ApplyWindow restricts the handle's pinned generation to rows [start,
// end of generation). Only the serving layer's window logic calls this,
// once, right after Acquire.
func (h *Handle) ApplyWindow(start int) error {
	if h.app == nil {
		return fmt.Errorf("server: dataset %q is not appendable; cannot window", h.e.name)
	}
	end := h.GenLen(h.gen)
	if start < 0 || end <= start {
		return fmt.Errorf("server: window [%d, %d) out of generation %d's [0, %d)", start, end, h.gen, end)
	}
	view, err := dataset.Window(h.app, start, end)
	if err != nil {
		return err
	}
	h.ds = view // Dataset() sees the window too
	h.win = &handleWindow{start: start, end: end}
	return nil
}

// Windowed reports whether the handle is restricted to a sliding window.
func (h *Handle) Windowed() bool { return h.win != nil }

// WindowRange returns the window's [start, end) over the pinned
// generation; (0, GenLen) when unwindowed.
func (h *Handle) WindowRange() (start, end int) {
	if h.win == nil {
		return 0, h.GenLen(h.gen)
	}
	return h.win.start, h.win.end
}

// ViewAt returns a frozen view of generation g ≤ the pinned one. A
// windowed handle's pinned generation resolves to the window's rows only.
func (h *Handle) ViewAt(g uint64) (dataset.Dataset, error) {
	if h.app == nil {
		if g != 0 {
			return nil, fmt.Errorf("server: dataset %q has no generation %d", h.e.name, g)
		}
		return h.ds, nil
	}
	if h.win != nil && g == h.gen {
		return h.ds, nil
	}
	return dataset.GenView(h.app, g)
}

// DeltaAt returns the points generation g ≥ 1 added.
func (h *Handle) DeltaAt(g uint64) (dataset.Dataset, error) {
	if h.app == nil {
		return nil, fmt.Errorf("server: dataset %q is not appendable", h.e.name)
	}
	return dataset.DeltaView(h.app, g)
}

// Fingerprint returns the content fingerprint of the pinned generation.
func (h *Handle) Fingerprint() (uint64, error) { return h.FingerprintAt(h.gen) }

// FingerprintAt returns the content fingerprint of generation g. For
// appendable datasets the per-generation digest memo makes each new
// generation cost one pass over its delta only; the value is keyed by
// generation, so — unlike the entry-lifetime memo non-appendable datasets
// use — it can never serve a fingerprint staled by an append. For
// non-appendable datasets the fingerprint is computed once (one dataset
// pass) and cached for the entry's lifetime, which is sound because the
// contents can never change.
func (h *Handle) FingerprintAt(g uint64) (uint64, error) {
	if h.win != nil && g == h.gen {
		return h.windowFingerprint()
	}
	if h.app != nil {
		return h.app.GenFingerprint(g, h.r.parallelism)
	}
	e := h.e
	e.openMu.Lock()
	defer e.openMu.Unlock()
	if !e.fpDone {
		fp, err := dataset.Fingerprint(e.ds, h.r.parallelism)
		if err != nil {
			return 0, err
		}
		e.fp, e.fpDone = fp, true
	}
	return e.fp, nil
}

// windowFingerprint returns the content fingerprint of the window's rows:
// one O(window) pass, memoized on the entry for the newest window only,
// which every request between two slides shares.
func (h *Handle) windowFingerprint() (uint64, error) {
	e, w := h.e, h.win
	e.openMu.Lock()
	m := e.winFP
	e.openMu.Unlock()
	if m != nil && m.gen == h.gen && m.start == w.start {
		return m.fp, nil
	}
	fp, err := dataset.Fingerprint(h.ds, h.r.parallelism)
	if err != nil {
		return 0, err
	}
	e.openMu.Lock()
	if e.winFP == nil || e.winFP.gen <= h.gen {
		e.winFP = &windowFP{gen: h.gen, start: w.start, fp: fp}
	}
	e.openMu.Unlock()
	return fp, nil
}

// Release returns the lease. The handle must not be used afterwards.
func (h *Handle) Release() { h.r.release(h.e) }

func (r *Registry) release(e *regEntry) {
	r.mu.Lock()
	e.refs--
	dropped := false
	if e.removed && e.refs == 0 {
		// The map may already hold a new entry under this name; only
		// delete if it is still ours.
		if cur, ok := r.entries[e.name]; ok && cur == e {
			delete(r.entries, e.name)
		}
		dropped = true
	}
	r.mu.Unlock()
	if dropped {
		closeEntry(e)
	}
}

// closeEntry releases a dropped entry's backing dataset. Path-backed
// datasets that hold OS resources implement io.Closer (a SegmentFile's
// memory mappings); it only runs once no handle is outstanding — exactly
// the condition under which entries are dropped — so no reader can still
// be touching mapped memory.
func closeEntry(e *regEntry) {
	e.openMu.Lock()
	ds := e.ds
	e.ds = nil
	e.openMu.Unlock()
	if c, ok := ds.(io.Closer); ok {
		c.Close()
	}
}

// Remove unregisters name. In-flight holders keep their handles; the entry
// is dropped when the last one releases.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok || e.removed {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.removed = true
	dropped := e.refs == 0
	if dropped {
		delete(r.entries, name)
	}
	r.mu.Unlock()
	if dropped {
		closeEntry(e)
	}
	return nil
}

// DatasetInfo describes one registered dataset for listings.
type DatasetInfo struct {
	Name   string `json:"name"`
	Source string `json:"source"` // "file" or "upload"
	Open   bool   `json:"open"`
	// Dims and Points are known once the dataset has been opened.
	Dims   int `json:"dims,omitempty"`
	Points int `json:"points,omitempty"`
	// Appendable and Generation describe growable datasets: whether
	// /v1/datasets/{name}/append will accept points, and how many appends
	// the dataset has absorbed so far.
	Appendable bool   `json:"appendable,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// Fingerprint is the hex content fingerprint, once computed.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// List returns the live registrations sorted by name. It reports state and
// never triggers opens or fingerprint passes.
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	entries := make([]*regEntry, 0, len(r.entries))
	for _, e := range r.entries {
		if !e.removed {
			entries = append(entries, e)
		}
	}
	r.mu.Unlock()

	infos := make([]DatasetInfo, 0, len(entries))
	for _, e := range entries {
		info := DatasetInfo{Name: e.name, Source: "file"}
		if e.mem != nil {
			info.Source = "upload"
		}
		e.openMu.Lock()
		if e.ds != nil {
			info.Open = true
			info.Dims = e.ds.Dims()
			info.Points = e.ds.Len()
			if app, ok := e.ds.(dataset.Appendable); ok {
				info.Appendable = true
				info.Generation = app.Generation()
			}
		}
		if e.fpDone {
			info.Fingerprint = fmt.Sprintf("%016x", e.fp)
		}
		e.openMu.Unlock()
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Len returns the number of live registrations.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		if !e.removed {
			n++
		}
	}
	return n
}
