package server

import (
	"time"

	"repro/internal/obs"
)

// streamAppendResponse is the stream append route's body: the append
// response with the window the server computes over next, so producers
// can observe eviction advancing.
type streamAppendResponse struct {
	appendResponse
	WindowStart int `json:"window_start"`
	WindowLen   int `json:"window_len"`
}

// windowStart is the first row of generation g's sliding window on h
// under the configured WindowPoints and WindowDur: 0, the whole
// generation, unless h leases a stream.
func (s *Server) windowStart(h *Handle, g uint64) int {
	var cutoff time.Time
	if s.cfg.WindowDur > 0 {
		cutoff = s.nowFn().Add(-s.cfg.WindowDur)
	}
	return h.WindowStart(g, s.cfg.WindowPoints, cutoff)
}

// applyWindow restricts h to its pinned generation's sliding window when
// h leases a stream. Downstream code sees the window through ViewAt and
// FingerprintAt, so scans, cache keys, and responses all cover exactly the
// window's rows. A window starting at 0 is the whole generation: the
// handle is left unwindowed and the (cheaper, prefix-memoized) generation
// fingerprint path applies.
func (s *Server) applyWindow(h *Handle) error {
	if start := s.windowStart(h, h.Generation()); start > 0 {
		return h.ApplyWindow(start)
	}
	return nil
}

// traceWindow annotates the request trace with the resolved window.
func traceWindow(rec *obs.Recorder, h *Handle) {
	if h.Windowed() {
		start, end := h.WindowRange()
		rec.Eventf("window/apply", "window=[%d,%d)", start, end)
	}
}
