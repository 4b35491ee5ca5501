package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
)

// streamState is the serving layer's per-stream bookkeeping: when each
// generation was appended (duration windows resolve against these
// watermarks) and the memoized window fingerprints. Fingerprints are
// content-addressed over the window's rows, so a (generation, start) pair
// computes its digest once — one O(window) pass — and every later request
// over the same window reuses it.
type streamState struct {
	mu       sync.Mutex
	genTimes map[uint64]time.Time
	fps      map[winKey]uint64
}

type winKey struct {
	gen   uint64
	start int
}

// stream returns name's stream state, creating it when create is set.
// A dataset has stream state iff it has been fed through the stream
// append endpoint; only such datasets get windows applied.
func (s *Server) stream(name string, create bool) *streamState {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	st := s.streams[name]
	if st == nil && create {
		st = &streamState{genTimes: make(map[uint64]time.Time), fps: make(map[winKey]uint64)}
		s.streams[name] = st
	}
	return st
}

// markAppend watermarks generation g of name with the current time. The
// plain dataset append endpoint calls it too (with create false), so a
// stream kept fresh through either endpoint ages correctly.
func (s *Server) markAppend(name string, g uint64, create bool) {
	st := s.stream(name, create)
	if st == nil {
		return
	}
	now := s.nowFn()
	st.mu.Lock()
	st.genTimes[g] = now
	st.mu.Unlock()
}

// applyWindow restricts h to the configured sliding window when h leases
// a stream dataset. The resolved window is a concrete [start, end) over
// the pinned generation; downstream code sees it through ViewAt and
// FingerprintAt, so scans, cache keys, and responses all cover exactly
// the window's rows. A window starting at 0 is the whole generation —
// the handle is left unwindowed and the (cheaper, prefix-memoized)
// generation fingerprint path applies.
func (s *Server) applyWindow(h *Handle) error {
	if h.Appendable() == nil {
		return nil
	}
	if s.cfg.WindowPoints <= 0 && s.cfg.WindowDur <= 0 {
		return nil
	}
	st := s.stream(h.Name(), false)
	if st == nil {
		return nil
	}
	g := h.Generation()
	end := h.GenLen(g)
	if end == 0 {
		return nil
	}
	start := 0
	if n := s.cfg.WindowPoints; n > 0 && end-n > start {
		start = end - n
	}
	if s.cfg.WindowDur > 0 {
		if ds := st.durStart(h, g, s.nowFn().Add(-s.cfg.WindowDur)); ds > start {
			start = ds
		}
	}
	if start <= 0 {
		return nil
	}
	fp := func() (uint64, error) { return st.fingerprint(h, g, start, end, s.reg.parallelism) }
	return h.ApplyWindow(start, end, fp)
}

// durStart resolves the duration window's start over generations 0..g:
// the first row of the oldest generation appended at or after the cutoff
// — generation-granular, and the newest generation is always kept even
// when stale. Generations with no watermark (appended before this server
// started, or generation 0 of a plain registration) count as stale.
func (st *streamState) durStart(h *Handle, g uint64, cutoff time.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for j := uint64(0); j <= g; j++ {
		if t, ok := st.genTimes[j]; ok && !t.Before(cutoff) {
			if j == 0 {
				return 0
			}
			return h.GenLen(j - 1)
		}
	}
	// Everything is stale: keep the newest generation only.
	if g == 0 {
		return 0
	}
	return h.GenLen(g - 1)
}

// fingerprint returns the content fingerprint of rows [start, end) of
// generation g, computing and memoizing it on first use. end is implied
// by (gen, start) — it is the generation's length — so the memo key
// omits it.
func (st *streamState) fingerprint(h *Handle, g uint64, start, end, parallelism int) (uint64, error) {
	key := winKey{gen: g, start: start}
	st.mu.Lock()
	if fp, ok := st.fps[key]; ok {
		st.mu.Unlock()
		return fp, nil
	}
	st.mu.Unlock()
	view, err := dataset.Window(h.Appendable(), start, end)
	if err != nil {
		return 0, err
	}
	fp, err := dataset.Fingerprint(view, parallelism)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	st.fps[key] = fp
	st.mu.Unlock()
	return fp, nil
}

// streamAppendResponse extends the append response with the resolved
// window, so producers can observe eviction advancing.
type streamAppendResponse struct {
	Name        string `json:"name"`
	Generation  uint64 `json:"generation"`
	Points      int    `json:"points"`
	Added       int    `json:"added"`
	WindowStart int    `json:"window_start"`
	WindowLen   int    `json:"window_len"`
}

// handleStreamAppend is POST /v1/streams/{name}/append: append a batch to
// a stream, creating the stream on first use. Bodies use the same formats
// as dataset appends (JSON, CSV, DBS1). Each batch is one generation;
// the response reports the window the server will compute over next.
func (s *Server) handleStreamAppend(ctx context.Context, rec *obs.Recorder, w http.ResponseWriter, r *http.Request) {
	span := rec.StartSpan("server/stream_append")
	defer span.End()
	name := r.PathValue("name")
	pts, err := decodeAppendBody(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "parsing append body: %v", err)
		return
	}
	if len(pts) == 0 {
		s.fail(w, http.StatusBadRequest, "empty append")
		return
	}

	h, err := s.acquireTraced(rec, name)
	if errors.Is(err, ErrNotFound) {
		// First batch: register it as generation 0 of a fresh stream.
		ds, derr := dataset.NewInMemory(pts)
		if derr != nil {
			s.fail(w, http.StatusBadRequest, "invalid points: %v", derr)
			return
		}
		if rerr := s.reg.RegisterDataset(name, ds); rerr != nil && !errors.Is(rerr, ErrExists) {
			s.registerFail(w, rerr)
			return
		} else if rerr == nil {
			s.markAppend(name, 0, true)
			rec.Counter(obs.CtrAppends).Inc()
			rec.Counter(obs.CtrAppendPoints).Add(int64(len(pts)))
			span.AddPoints(int64(len(pts)))
			s.writeStreamAppendResponse(w, name, 0, len(pts), len(pts))
			return
		}
		// Lost a concurrent create race: fall through to a plain append.
		h, err = s.acquireTraced(rec, name)
	}
	if err != nil {
		s.acquireFail(w, err)
		return
	}
	defer h.Release()
	app := h.Appendable()
	if app == nil {
		s.fail(w, http.StatusConflict, "dataset %q is not appendable", name)
		return
	}
	aerr := s.runStage(ctx, rec, "server/append", faults.SiteHash(name), func(context.Context) error {
		return app.Append(pts...)
	})
	if aerr != nil {
		s.pipelineFail(w, aerr)
		return
	}
	gen := app.Generation()
	s.markAppend(name, gen, true)
	rec.Counter(obs.CtrAppends).Inc()
	rec.Counter(obs.CtrAppendPoints).Add(int64(len(pts)))
	span.AddPoints(int64(len(pts)))
	s.writeStreamAppendResponse(w, name, gen, app.GenLen(gen), len(pts))
}

// writeStreamAppendResponse resolves the window a fresh request would see
// and writes the stream append response.
func (s *Server) writeStreamAppendResponse(w http.ResponseWriter, name string, gen uint64, total, added int) {
	resp := streamAppendResponse{
		Name: name, Generation: gen, Points: total, Added: added,
		WindowStart: 0, WindowLen: total,
	}
	if h, err := s.reg.Acquire(name); err == nil {
		if werr := s.applyWindow(h); werr == nil {
			start, end := h.WindowRange()
			resp.WindowStart, resp.WindowLen = start, end-start
		}
		h.Release()
	}
	writeJSON(w, http.StatusOK, resp)
}

// traceWindow annotates the request trace with the resolved window.
func traceWindow(rec *obs.Recorder, h *Handle) {
	if h.Windowed() {
		start, end := h.WindowRange()
		rec.Eventf("window/apply", "window=[%d,%d)", start, end)
	}
}
